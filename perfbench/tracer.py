#!/usr/bin/env python3
"""Child-process side of the traced run: spans around vda layer calls.

    python3 perfbench/tracer.py stage SPANS_JSON -- <vda cli arguments>
    python3 perfbench/tracer.py kernels SEED

``stage`` imports ``vda.cli``, replaces the public layer functions named in
``LAYER_FUNCTIONS`` with timing wrappers on every vda module attribute bound
to them, runs ``vda.cli.main`` and writes the spans when the stage ends.
``evaluate_pair`` binds the metric functions at import time, so after each
call the tracer calls every public metric function on the same aligned pair,
times it as a probe span and checks that its value equals evaluate_pair's
within the reference tolerance of ``checks.py``.
While a probe runs the wrappers record nothing, so call counts stay those of
the untraced pipeline.

``kernels`` times the three ``vda.kernels`` entry points on seeded inputs
and prints the backend ``kernels.backend_name()`` reports.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

from checks import METRIC_TOLERANCES, close

LAYER_FUNCTIONS = {
    "corpus": ("load_wav", "resample", "align"),
    "dsp": ("frame", "power_spectra", "make_filterbank", "autocorrelate", "acf_pitch_track"),
    "kernels": ("local_peak_values", "levinson_batch", "mark_periods"),
    "metrics": ("evaluate_pair",),
    "features": ("extract_features",),
    "model": ("build_design_matrix", "fit_ols", "decomposition_table"),
    "report": ("render_regression_table", "render_decomposition_table", "render_comparison_table"),
    "cli": ("cmd_metrics", "cmd_features", "cmd_fit", "cmd_decompose", "cmd_report"),
}
# Per-pair workers of the metrics and features stages; each call opens a pair group.
ROW_FUNCTIONS = ("_metric_row", "_feature_row")
PROBED_METRICS = ("stoi", "snr_seg", "fw_snr_seg", "llr", "wss", "csii", "ncm")
# Functions whose first argument is the observation rows; its length is recorded.
ROW_COUNTED = ("model.build_design_matrix", "model.decomposition_table")


class Recorder:
    """In-memory spans: [id, name, parent, group, start, end, rows]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.paused = False
        self.groups = 0
        self.mismatches: list[str] = []
        self.missing: list[str] = []

    def call(self, name: str, fn, args, kwargs, new_group: bool = False):
        if self.paused:
            return fn(*args, **kwargs)
        parent = self.stack[-1] if self.stack else None
        if new_group or parent is None:
            self.groups += 1
            group = self.groups
        else:
            group = parent[3]
        rows = len(args[0]) if name in ROW_COUNTED and args else None
        span = [len(self.spans), name, parent[0] if parent else None, group, 0.0, 0.0, rows]
        self.spans.append(span)
        self.stack.append(span)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self.stack.pop()

    def probe_metrics(self, metrics_module, pair, report) -> None:
        """Time each public metric function on ``pair`` and compare with ``report``."""
        parent = self.stack[-1] if self.stack else None
        for name in PROBED_METRICS:
            fn = getattr(metrics_module, name, None)
            if fn is None:
                self.missing.append(f"metrics.{name}")
                continue
            self.paused = True
            start = time.perf_counter()
            try:
                value = fn(pair)
            except Exception as exc:  # a probe failure is reported, the stage goes on
                self.mismatches.append(f"metrics.{name} failed on its own: {exc!r}")
                continue
            finally:
                end = time.perf_counter()
                self.paused = False
            self.spans.append([len(self.spans), f"probe.metrics.{name}",
                               parent[0] if parent else None,
                               parent[3] if parent else 0, start, end, None])
            expected = getattr(report, name, None)
            if not _agrees(name, value, expected):
                self.mismatches.append(f"metrics.{name}: {value!r} != evaluate_pair {expected!r}")


def _agrees(name: str, value, expected) -> bool:
    """Equal within the reference tolerance of the metric's metrics.csv column(s)."""
    if name == "csii":
        if not (isinstance(value, tuple) and isinstance(expected, tuple) and len(value) == len(expected)):
            return False
        columns = ("csii_high", "csii_mid", "csii_low")
        return all(close(v, e, METRIC_TOLERANCES[c]) for c, v, e in zip(columns, value, expected))
    return close(value, expected, METRIC_TOLERANCES[name])


def _rebind(original, wrapper) -> None:
    """Point every vda module attribute bound to ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "vda" or mod_name.startswith("vda.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrapper(rec: Recorder, name: str, fn, new_group: bool = False):
    def traced(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, new_group)

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder) -> None:
    modules = {layer: importlib.import_module(f"vda.{layer}") for layer in LAYER_FUNCTIONS}
    metrics_module = modules["metrics"]
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            original = getattr(modules[layer], fname, None)
            if original is None:
                rec.missing.append(f"{layer}.{fname}")
                continue
            name = f"{layer}.{fname}"
            if name == "metrics.evaluate_pair":
                wrapper = _evaluate_pair_wrapper(rec, original, metrics_module)
            else:
                wrapper = _wrapper(rec, name, original, new_group=layer == "cli")
            _rebind(original, wrapper)
    for fname in ROW_FUNCTIONS:
        original = getattr(modules["cli"], fname, None)
        if original is not None:
            _rebind(original, _wrapper(rec, f"cli.{fname}", original, new_group=True))


def _evaluate_pair_wrapper(rec: Recorder, original, metrics_module):
    def traced(pair, *args, **kwargs):
        report = rec.call("metrics.evaluate_pair", original, (pair, *args), kwargs)
        if not rec.paused:
            rec.probe_metrics(metrics_module, pair, report)
        return report

    traced.__wrapped__ = original
    return traced


def run_stage(spans_path: str, cli_args: list[str]) -> int:
    import vda.cli

    rec = Recorder()
    install(rec)
    code = 1
    try:
        code = vda.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "spans": rec.spans, "mismatches": rec.mismatches,
                       "missing": rec.missing}, fh)
    return code


KERNEL_REPEATS = 5


def time_kernels(seed: int) -> dict:
    """Median seconds of each kernel on seeded inputs: 4000 order-12 autocorrelation
    rows, a 20 s pulse train at 16 kHz and 5000 frames of 36 band levels."""
    import numpy as np

    from vda import dsp, kernels

    rng = np.random.default_rng(seed)
    r = dsp.autocorrelate(rng.standard_normal((4000, 400)), 12)
    n, period = 20 * 16000, 160
    x = rng.normal(0.0, 0.01, n)
    x[80::period] += 1.0
    bands = rng.standard_normal((5000, 36))
    cases = {
        "levinson_batch": lambda: kernels.levinson_batch(r),
        "mark_periods": lambda: kernels.mark_periods(x, 80, float(period)),
        "local_peak_values": lambda: kernels.local_peak_values(bands),
    }
    out = {"backend": kernels.backend_name()}
    for name, fn in cases.items():
        fn()  # warm-up (compiles on a JIT backend)
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times)
    return out


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "stage" and argv[2] == "--":
        return run_stage(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "kernels":
        print(json.dumps(time_kernels(int(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
