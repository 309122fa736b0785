"""Table rendering for fits, decompositions, and baseline/variant comparisons.

Markdown is the human-readable target; significance appears as ``*`` /
``**`` / ``***`` (weak/medium/strong) and deltas carry ``(+)`` / ``(-)``
polarity marks. CSV and JSON renders are machine-parseable and lossless at
their declared precision.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .errors import VdaError
from .features import N_FEATURES
from .metrics import COLUMNS
from .model import M_BITS, M_LABELS, OaxacaDecomposition, RegressionFit, significance_band

FORMATS = ("csv", "json", "markdown")

_BAND_MARK = {"strong": "***", "medium": "**", "weak": "*", "none": ""}


class AlignmentKeyError(VdaError):
    """Baseline and variant aggregates do not share condition keys."""


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def fit_records(fit: RegressionFit) -> list[dict]:
    """Coefficient records for export: one per design column."""
    records = []
    for j, (i, m_label) in enumerate(fit.column_labels):
        kept = bool(fit.retained[j])
        p = float(fit.p_value[j]) if kept else None
        records.append(
            {
                "feature_index": i,
                "interaction_label": m_label,
                "theta": float(fit.theta[j]) if kept else None,
                "std_err": float(fit.std_err[j]) if kept else None,
                "t": float(fit.t_stat[j]) if kept and math.isfinite(fit.t_stat[j]) else None,
                "p": p,
                "band": significance_band(p) if p is not None else None,
            }
        )
    return records


def render_regression_table(fit: RegressionFit, fmt: str) -> str:
    """Interaction-by-feature coefficient table with significance banding."""
    _check_format(fmt)
    records = fit_records(fit)
    if fmt == "json":
        return json.dumps(
            {
                "residual_variance": fit.residual_variance,
                "dof": fit.dof,
                "coefficients": records,
            },
            indent=2,
            sort_keys=True,
        )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["feature_index", "interaction_label", "theta", "std_err", "t", "p", "band"])
        for rec in records:
            writer.writerow(
                [
                    rec["feature_index"],
                    rec["interaction_label"],
                    "" if rec["theta"] is None else repr(rec["theta"]),
                    "" if rec["std_err"] is None else repr(rec["std_err"]),
                    "" if rec["t"] is None else repr(rec["t"]),
                    "" if rec["p"] is None else repr(rec["p"]),
                    rec["band"] or "",
                ]
            )
        return buf.getvalue()

    by_key = {(r["feature_index"], r["interaction_label"]): r for r in records}
    header = "| term | " + " | ".join(f"X{i}" for i in range(N_FEATURES)) + " |"
    rule = "|" + "---|" * (N_FEATURES + 1)
    lines = [header, rule]
    for m_label in M_LABELS:
        cells = []
        for i in range(N_FEATURES):
            rec = by_key[(i, m_label)]
            if rec["theta"] is None:
                cells.append("—")
            else:
                cells.append(f"{rec['theta']:.2f}{_BAND_MARK[rec['band']]}")
        lines.append(f"| {m_label} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("significance: *** p<=0.01, ** p<=0.05, * p<=0.10; — dropped column")
    return "\n".join(lines) + "\n"


def decomposition_records(table: list[OaxacaDecomposition]) -> list[dict]:
    records = []
    for dec in table:
        g, c, d = (int(b) for b in M_BITS[M_LABELS.index(dec.indicator)])
        records.append(
            {
                "indicator": dec.indicator,
                "G": g,
                "C": c,
                "D": d,
                "endowment": dec.endowment,
                "coefficient": dec.coefficient,
                "interaction": dec.interaction,
                "collective": dec.collective,
            }
        )
    return records


def render_decomposition_table(table: list[OaxacaDecomposition], fmt: str) -> str:
    """Decomposition table: indicator bits plus the four effect columns."""
    _check_format(fmt)
    records = decomposition_records(table)
    if fmt == "json":
        return json.dumps({"rows": records}, indent=2, sort_keys=True)
    columns = ["indicator", "G", "C", "D", "endowment", "coefficient", "interaction", "collective"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow(
                [rec["indicator"], rec["G"], rec["C"], rec["D"]]
                + [f"{rec[k]:.3f}" for k in ("endowment", "coefficient", "interaction", "collective")]
            )
        return buf.getvalue()
    lines = [
        "| term | G | C | D | Endowment | Coefficient | Interaction | Collective |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for rec in records:
        lines.append(
            f"| {rec['indicator']} | {rec['G']} | {rec['C']} | {rec['D']} | "
            f"{rec['endowment']:.3f} | {rec['coefficient']:.3f} | "
            f"{rec['interaction']:.3f} | {rec['collective']:.3f} |"
        )
    return "\n".join(lines) + "\n"


def parse_decomposition_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        rows.append(
            {
                "indicator": rec["indicator"],
                "G": int(rec["G"]),
                "C": int(rec["C"]),
                "D": int(rec["D"]),
                "endowment": float(rec["endowment"]),
                "coefficient": float(rec["coefficient"]),
                "interaction": float(rec["interaction"]),
                "collective": float(rec["collective"]),
            }
        )
    return rows


def _condition_key_str(key) -> str:
    g, c, d = key
    return f"G{g}C{c}D{d}"


def render_comparison_table(baseline: dict, variants: dict[str, dict], fmt: str) -> str:
    """Baseline metric means per condition plus signed per-variant deltas.

    ``baseline`` maps condition keys (g, c, d) to {metric: mean}; every
    variant must cover the same keys. Values render at 2 decimals; deltas
    carry an explicit sign and polarity mark.
    """
    _check_format(fmt)
    base_keys = sorted(baseline)
    for name, agg in variants.items():
        missing = [k for k in base_keys if k not in agg]
        extra = [k for k in agg if k not in baseline]
        if missing or extra:
            raise AlignmentKeyError(
                f"variant {name!r}: missing keys {missing}, unexpected keys {extra}"
            )

    shown = [m for m in COLUMNS if any(_has_value(baseline[k].get(m)) for k in base_keys)]
    records = []
    for metric in shown:
        for key in base_keys:
            base_val = baseline[key].get(metric)
            if not _has_value(base_val):
                continue
            rec = {
                "metric": metric,
                "condition": _condition_key_str(key),
                "baseline": float(base_val),
                "deltas": {},
            }
            for name in sorted(variants):
                var_val = variants[name][key].get(metric)
                if _has_value(var_val):
                    delta = float(var_val) - float(base_val)
                    rec["deltas"][name] = {"delta": delta,
                                           "polarity": "positive" if delta >= 0 else "negative"}
            records.append(rec)

    if fmt == "json":
        return json.dumps({"rows": records}, indent=2, sort_keys=True)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = sorted(variants)
        writer.writerow(["metric", "condition", "baseline"]
                        + [f"delta_{n}" for n in names])
        for rec in records:
            row = [rec["metric"], rec["condition"], f"{rec['baseline']:.2f}"]
            for n in names:
                d = rec["deltas"].get(n)
                row.append("" if d is None else f"{d['delta']:+.2f}")
            writer.writerow(row)
        return buf.getvalue()

    names = sorted(variants)
    header = "| metric | condition | baseline | " + " | ".join(names) + " |" if names else \
        "| metric | condition | baseline |"
    rule = "|" + "---|" * (3 + len(names))
    lines = [header, rule]
    for rec in records:
        row = [rec["metric"], rec["condition"], f"{rec['baseline']:.2f}"]
        for n in names:
            d = rec["deltas"].get(n)
            if d is None:
                row.append("")
            else:
                mark = "(+)" if d["polarity"] == "positive" else "(-)"
                row.append(f"{d['delta']:+.2f} {mark}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _has_value(v) -> bool:
    return v is not None and not (isinstance(v, float) and math.isnan(v))


def cell_means(labels: np.ndarray, values: np.ndarray) -> dict:
    """Mean per condition cell of every metric column.

    ``labels`` holds the ``(n, 3)`` G/C/D indicators of ``n`` rows and
    ``values`` their ``(n, len(COLUMNS))`` metric values, NaN where absent.
    The result maps (g, c, d) to {metric: mean over the rows with a value};
    a metric with no value in a cell is left out of it.
    """
    means = {}
    for key in sorted(set(map(tuple, labels.tolist()))):
        cell = values[(labels == key).all(axis=1)]
        present = ~np.isnan(cell)
        means[key] = {metric: float(np.mean(cell[has, j]))
                      for j, (metric, has) in enumerate(zip(COLUMNS, present.T)) if has.any()}
    return means
