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

from .errors import DegenerateInputError, VdaError
from .features import N_FEATURES
from .metrics import COLUMNS
from .model import (
    COLUMN_LABELS,
    M_BITS,
    M_LABELS,
    N_COLUMNS,
    OaxacaDecomposition,
    RegressionFit,
    significance_band,
)

FORMATS = ("csv", "json", "markdown")

_BAND_MARK = {"strong": "***", "medium": "**", "weak": "*", "none": ""}


class AlignmentKeyError(VdaError):
    """Baseline and variant aggregates do not share condition keys."""


def _check_format(fmt: str, formats: tuple[str, ...] = FORMATS) -> None:
    if fmt not in formats:
        raise ValueError(f"unknown format {fmt!r}; expected one of {formats}")


def fmt_cell(value) -> str:
    """One CSV cell: blank for None or NaN, ``repr`` for a float."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "" if np.isnan(value) else repr(value)


def csv_text(header, rows) -> str:
    """CSV of ``rows`` under ``header``, every cell through ``fmt_cell``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt_cell(value) for value in row] for row in rows)
    return buf.getvalue()


def _markdown(header, rows, *notes: str) -> str:
    """Markdown table of the string cells ``rows``, then a blank line and ``notes``."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    if notes:
        lines += ["", *notes]
    return "\n".join(lines) + "\n"


def condition_name(g, c, d) -> str:
    """The name of a G/C/D condition cell, e.g. ``G1C0D1``."""
    return f"G{g}C{c}D{d}"


def fit_records(fit: RegressionFit) -> list[dict]:
    """Coefficient records for export: one per design column of ``COLUMN_LABELS``.

    A retained column whose p-value is undefined (NaN, as when theta and its
    standard error are both 0) is a DegenerateInputError naming the column.
    """
    if len(fit.theta) != N_COLUMNS:
        raise ValueError(f"expected a fit of the {N_COLUMNS} design columns, got {len(fit.theta)}")
    records = []
    for (i, m_label), kept, theta, se, t, p in zip(COLUMN_LABELS, fit.retained, fit.theta,
                                                   fit.std_err, fit.t_stat, fit.p_value):
        if kept and math.isnan(p):
            raise DegenerateInputError(f"column (feature {i}, term {m_label}): p-value undefined "
                                       f"(theta {theta}, std_err {se})")
        records.append(
            {
                "feature_index": i,
                "interaction_label": m_label,
                "theta": float(theta) if kept else None,
                "std_err": float(se) if kept else None,
                "t": float(t) if kept and math.isfinite(t) else None,
                "p": float(p) if kept else None,
                "band": significance_band(p) if kept else None,
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
        columns = ("feature_index", "interaction_label", "theta", "std_err", "t", "p", "band")
        return csv_text(columns, [[rec[k] for k in columns] for rec in records])

    rows = []
    for k, m_label in enumerate(M_LABELS):
        term = records[k * N_FEATURES:(k + 1) * N_FEATURES]
        rows.append([m_label] + ["—" if rec["theta"] is None
                                 else f"{rec['theta']:.2f}{_BAND_MARK[rec['band']]}"
                                 for rec in term])
    return _markdown(["term"] + [f"X{i}" for i in range(N_FEATURES)], rows,
                     "significance: *** p<=0.01, ** p<=0.05, * p<=0.10; — dropped column")


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
    """Decomposition table: indicator bits plus the four effect columns, as
    "csv" or "markdown" at three decimals. The full-precision JSON file is
    ``decomposition_records`` with the outcome and reference mode."""
    _check_format(fmt, ("csv", "markdown"))
    records = decomposition_records(table)
    parts = ("endowment", "coefficient", "interaction", "collective")
    rows = [[rec["indicator"]] + [str(rec[b]) for b in "GCD"] + [f"{rec[k]:.3f}" for k in parts]
            for rec in records]
    if fmt == "csv":
        return csv_text(("indicator", "G", "C", "D") + parts, rows)
    return _markdown(["term", "G", "C", "D"] + [k.capitalize() for k in parts], rows)


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
                "condition": condition_name(*key),
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
    names = sorted(variants)
    marks = {"positive": " (+)", "negative": " (-)"}
    rows = []
    for rec in records:
        row = [rec["metric"], rec["condition"], f"{rec['baseline']:.2f}"]
        for n in names:
            d = rec["deltas"].get(n)
            mark = marks[d["polarity"]] if d and fmt == "markdown" else ""
            row.append("" if d is None else f"{d['delta']:+.2f}{mark}")
        rows.append(row)
    if fmt == "csv":
        return csv_text(["metric", "condition", "baseline"] + [f"delta_{n}" for n in names], rows)
    return _markdown(["metric", "condition", "baseline"] + names, rows)


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
