"""Per-layer metrics from the traced run: span totals, self times, counts and imports.

Each entry of ``PER_LAYER`` names a metric, its unit, and the end-to-end
metric it is expected to move (on which workload), so that a change to one
layer can be traced to the end-to-end figure it claims.
"""
from __future__ import annotations

import statistics

STAGES = ("metrics", "features", "fit", "decompose", "report")
METRIC_FUNCTIONS = ("stoi", "snr_seg", "fw_snr_seg", "llr", "wss", "csii", "ncm")
IMPORTED_MODULES = ("scipy.signal", "scipy.stats", "scipy.linalg", "scipy.fft")

PER_LAYER: list[tuple[str, str, str]] = [
    ("import.vda_s", "s", "setup_s everywhere; fit/decompose/report stage times on corpus-short"),
    *((f"import.{m}_s", "s", "setup_s everywhere; barely pipeline_s on model-scale") for m in IMPORTED_MODULES),
    ("metrics.samples", "count", "sample count of the metrics.* percentiles"),
    *(
        item
        for m in METRIC_FUNCTIONS
        for item in (
            (f"metrics.{m}.ms_p50", "ms", "pipeline_s on corpus-short and long-utterance"),
            (f"metrics.{m}.ms_p90", "ms", "pipeline_s on corpus-short and long-utterance"),
            (f"metrics.{m}.s", "s", "pipeline_s on corpus-short and long-utterance"
                                    + ("; peak_rss_mb on long-utterance" if m == "ncm" else "")),
        )
    ),
    ("dsp.frame.calls_per_pair", "1/pair", "pipeline_s on corpus-short (shared per-pair analysis)"),
    ("dsp.power_spectra.calls_per_pair", "1/pair", "pipeline_s on corpus-short (shared per-pair analysis)"),
    ("dsp.make_filterbank.calls_per_pair", "1/pair", "pipeline_s on corpus-short (shared per-pair analysis)"),
    ("dsp.power_spectra.s", "s", "pipeline_s on corpus-short"),
    ("dsp.autocorrelate.s", "s", "pipeline_s on corpus-short"),
    ("dsp.acf_pitch_track.s", "s", "pipeline_s on corpus-short"),
    ("kernels.local_peak_values.s", "s", "pipeline_s on corpus-short (through wss)"),
    ("kernels.levinson_batch.s", "s", "pipeline_s on corpus-short (through llr and features)"),
    ("kernels.mark_periods.s", "s", "pipeline_s on corpus-short (through features)"),
    ("kernels.local_peak_values.bench_ms", "ms", "kernel alone, 5000x36 bands; see kernels backend"),
    ("kernels.levinson_batch.bench_ms", "ms", "kernel alone, 4000 frames of order 12"),
    ("kernels.mark_periods.bench_ms", "ms", "kernel alone, 20 s pulse train"),
    ("corpus.load_wav.s", "s", "pipeline_s on the corpus workloads"),
    ("corpus.resample.s", "s", "pipeline_s on the corpus workloads"),
    ("corpus.align.s", "s", "pipeline_s on the corpus workloads"),
    ("corpus.resample.calls_per_pair", "1/pair", "pipeline_s on the corpus workloads"),
    ("features.samples", "count", "sample count of the features percentiles"),
    ("features.extract_features.ms_p50", "ms", "pipeline_s on the corpus workloads"),
    ("features.extract_features.ms_p90", "ms", "pipeline_s on the corpus workloads"),
    ("features.extract_features.s", "s", "pipeline_s on the corpus workloads"),
    ("model.build_design_matrix.s", "s", "pipeline_s on model-scale, not corpus-short"),
    ("model.fit_ols.s", "s", "pipeline_s on model-scale, not corpus-short"),
    ("model.fit_ols.calls", "count", "pipeline_s on model-scale"),
    ("model.decomposition_table.s", "s", "pipeline_s on model-scale, not corpus-short"),
    ("model.rows", "count", "rows the model layer sees"),
    *((f"report.render_{t}_table.s", "s", "pipeline_s, mostly on model-scale")
      for t in ("regression", "decomposition", "comparison")),
    *((f"cli.cmd_{s}.self_s", "s", "pipeline_s, mostly on model-scale (CSV reading and writing)")
      for s in STAGES),
    *((f"stage.{s}_s", "s", "pipeline_s; untraced stage time, as pipeline_s counts it, "
       "0 when not run") for s in STAGES),
    ("stage.audio_s_per_s", "s/s", "paired audio seconds over metrics plus features stage time"),
    ("trace.overhead_ratio", "ratio", "traced over untraced stage CPU time, probes excluded"),
]


def _self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    start, end = span[4], span[5]
    covered, cursor = 0.0, start
    for child in sorted(children, key=lambda c: c[4]):
        lo, hi = max(child[4], cursor), min(child[5], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def _p50_p90_ms(durations: list[float]) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    ms = [d * 1e3 for d in durations]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return statistics.median(ms), p90


def self_times(stage_spans: dict[str, list[list]]) -> dict[str, dict[str, float]]:
    """Per stage, the self time of each layer (the first part of a span name)."""
    out: dict[str, dict[str, float]] = {}
    for stage, spans in stage_spans.items():
        children: dict[int, list] = {}
        for span in spans:
            if span[2] is not None:
                children.setdefault(span[2], []).append(span)
        layers = out.setdefault(stage, {})
        for span in spans:
            layer = span[1].split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + _self_time(span, children.get(span[0], []))
    return out


def span_metrics(stage_spans: dict[str, list[list]], n_pairs: int) -> dict[str, float]:
    """Per-layer figures from the spans of each traced stage."""
    durations: dict[str, list[float]] = {}
    rows = 0
    for spans in stage_spans.values():
        for span in spans:
            durations.setdefault(span[1], []).append(span[5] - span[4])
            if span[6] is not None:
                rows = max(rows, span[6])

    def total(name: str) -> float:
        return sum(durations.get(name, []))

    def per_pair(name: str) -> float:
        return len(durations.get(name, [])) / n_pairs if n_pairs else 0.0

    out: dict[str, float] = {"metrics.samples": len(durations.get("probe.metrics.stoi", []))}
    for m in METRIC_FUNCTIONS:
        p50, p90 = _p50_p90_ms(durations.get(f"probe.metrics.{m}", []))
        out[f"metrics.{m}.ms_p50"] = p50
        out[f"metrics.{m}.ms_p90"] = p90
        out[f"metrics.{m}.s"] = total(f"probe.metrics.{m}")
    for name in ("dsp.frame", "dsp.power_spectra", "dsp.make_filterbank"):
        out[f"{name}.calls_per_pair"] = per_pair(name)
    for name in ("dsp.power_spectra", "dsp.autocorrelate", "dsp.acf_pitch_track",
                 "kernels.local_peak_values", "kernels.levinson_batch", "kernels.mark_periods",
                 "corpus.load_wav", "corpus.resample", "corpus.align"):
        out[f"{name}.s"] = total(name)
    out["corpus.resample.calls_per_pair"] = per_pair("corpus.resample")
    feat = durations.get("features.extract_features", [])
    out["features.samples"] = len(feat)
    out["features.extract_features.ms_p50"], out["features.extract_features.ms_p90"] = _p50_p90_ms(feat)
    out["features.extract_features.s"] = sum(feat)
    for name in ("model.build_design_matrix", "model.fit_ols", "model.decomposition_table"):
        out[f"{name}.s"] = total(name)
    out["model.fit_ols.calls"] = len(durations.get("model.fit_ols", []))
    out["model.rows"] = rows
    for t in ("regression", "decomposition", "comparison"):
        out[f"report.render_{t}_table.s"] = total(f"report.render_{t}_table")
    by_stage = self_times(stage_spans)
    for stage in STAGES:
        out[f"cli.cmd_{stage}.self_s"] = by_stage.get(stage, {}).get("cli", 0.0)
    return out


def probe_seconds(spans: list[list]) -> float:
    return sum(s[5] - s[4] for s in spans if s[1].startswith("probe."))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing ``vda`` and each scipy subpackage in ``IMPORTED_MODULES``.

    ``-X importtime`` prints ``import time: self | cumulative | name`` after
    each import ends, children before their parent and indented two spaces
    per level. A package's time is the cumulative time of its outermost
    modules (those with no ancestor inside the package); a package line
    itself is not always printed, because scipy loads subpackages lazily.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()[1:]
        level = (len(raw) - len(raw.lstrip(" "))) // 2
        entries.append((level, raw.strip(), int(parts[1])))
    prefixes = ("vda", *IMPORTED_MODULES)
    totals = dict.fromkeys(prefixes, 0)
    stack: list[tuple[int, frozenset]] = []  # (level, prefixes matched by self or an ancestor)
    for level, name, cumulative in reversed(entries):  # parents now precede children
        while stack and stack[-1][0] >= level:
            stack.pop()
        inherited = stack[-1][1] if stack else frozenset()
        own = {p for p in prefixes if name == p or name.startswith(p + ".")}
        for p in own - inherited:
            totals[p] += cumulative
        stack.append((level, inherited | own))
    return {f"import.{p}_s": us / 1e6 for p, us in totals.items()}
