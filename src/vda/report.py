"""Table rendering for fits, decompositions, and baseline/variant comparisons.

Markdown is the human-readable target; significance appears as ``*`` /
``**`` / ``***`` (weak/medium/strong) and deltas carry ``(+)`` / ``(-)``
polarity marks. CSV and JSON renders are machine-parseable and lossless at
their declared precision.

The metrics and features stages write their CSVs with ``csv_text`` alone, so
the renderers import ``json`` and ``model`` where they use them.
"""
from __future__ import annotations

import csv
import io
import math
from typing import TYPE_CHECKING

import numpy as np

from .corpus import METRIC_COLUMNS, N_FEATURES
from .errors import DegenerateInputError, VdaError

if TYPE_CHECKING:
    from .model import OaxacaDecomposition, RegressionFit

_BAND_MARK = {"strong": "***", "medium": "**", "weak": "*", "none": ""}


class AlignmentKeyError(VdaError):
    """Baseline and variant aggregates do not share condition keys."""


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
    from .model import COLUMN_LABELS, N_COLUMNS, significance_band

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


def render_regression_table(fit: RegressionFit) -> dict[str, str]:
    """Interaction-by-feature coefficient table with significance banding:
    the texts of ``fit_<outcome>.json``, ``regression_<outcome>.csv`` and
    ``regression_<outcome>.md``, keyed by suffix."""
    import json

    from .model import M_LABELS

    records = fit_records(fit)
    columns = ("feature_index", "interaction_label", "theta", "std_err", "t", "p", "band")
    rows = []
    for k, m_label in enumerate(M_LABELS):
        term = records[k * N_FEATURES:(k + 1) * N_FEATURES]
        rows.append([m_label] + ["—" if rec["theta"] is None
                                 else f"{rec['theta']:.2f}{_BAND_MARK[rec['band']]}"
                                 for rec in term])
    return {
        ".json": json.dumps(
            {
                "residual_variance": fit.residual_variance,
                "dof": fit.dof,
                "coefficients": records,
            },
            indent=2,
            sort_keys=True,
        ),
        ".csv": csv_text(columns, [[rec[k] for k in columns] for rec in records]),
        ".md": _markdown(["term"] + [f"X{i}" for i in range(N_FEATURES)], rows,
                         "significance: *** p<=0.01, ** p<=0.05, * p<=0.10; — dropped column"),
    }


def render_decomposition_table(table: list[OaxacaDecomposition], outcome: str,
                               reference: str) -> dict[str, str]:
    """Decomposition table, keyed by suffix: indicator bits plus the four
    effect columns at three decimals in ``.csv`` and ``.md``, and in
    ``.json`` at full precision with the outcome and reference mode."""
    import json

    from .model import M_BITS, M_LABELS

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
    parts = ("endowment", "coefficient", "interaction", "collective")
    rows = [[rec["indicator"]] + [str(rec[b]) for b in "GCD"] + [f"{rec[k]:.3f}" for k in parts]
            for rec in records]
    return {
        ".csv": csv_text(("indicator", "G", "C", "D") + parts, rows),
        ".json": json.dumps({"outcome": outcome, "reference": reference, "rows": records},
                            indent=2, sort_keys=True),
        ".md": _markdown(["term", "G", "C", "D"] + [k.capitalize() for k in parts], rows),
    }


def render_comparison_table(baseline: dict, variants: dict[str, dict]) -> dict[str, str]:
    """Baseline metric means per condition plus signed per-variant deltas,
    as ``.csv``, ``.json`` and ``.md`` texts keyed by suffix.

    ``baseline`` maps condition keys (g, c, d) to {metric: mean}; every
    variant must cover the same keys. Values render at 2 decimals; deltas
    carry an explicit sign, and in markdown a polarity mark.
    """
    import json

    base_keys = sorted(baseline)
    for name, agg in variants.items():
        missing = [k for k in base_keys if k not in agg]
        extra = [k for k in agg if k not in baseline]
        if missing or extra:
            raise AlignmentKeyError(
                f"variant {name!r}: missing keys {missing}, unexpected keys {extra}"
            )

    names = sorted(variants)
    shown = [m for m in METRIC_COLUMNS if any(_has_value(baseline[k].get(m)) for k in base_keys)]
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
            for name in names:
                var_val = variants[name][key].get(metric)
                if _has_value(var_val):
                    delta = float(var_val) - float(base_val)
                    rec["deltas"][name] = {"delta": delta,
                                           "polarity": "positive" if delta >= 0 else "negative"}
            records.append(rec)

    def rows(marks: dict[str, str]) -> list[list[str]]:
        return [[rec["metric"], rec["condition"], f"{rec['baseline']:.2f}"]
                + ["" if d is None else f"{d['delta']:+.2f}{marks[d['polarity']]}"
                   for d in map(rec["deltas"].get, names)]
                for rec in records]

    header = ["metric", "condition", "baseline"]
    return {
        ".csv": csv_text(header + [f"delta_{n}" for n in names], rows({"positive": "", "negative": ""})),
        ".json": json.dumps({"rows": records}, indent=2, sort_keys=True),
        ".md": _markdown(header + names, rows({"positive": " (+)", "negative": " (-)"})),
    }


def _has_value(v) -> bool:
    return v is not None and not (isinstance(v, float) and math.isnan(v))


def cell_means(labels: np.ndarray, values: np.ndarray) -> dict:
    """Mean per condition cell of every metric column.

    ``labels`` holds the ``(n, 3)`` G/C/D indicators of ``n`` rows and
    ``values`` their ``(n, len(METRIC_COLUMNS))`` metric values, NaN where absent.
    The result maps (g, c, d) to {metric: mean over the rows with a value};
    a metric with no value in a cell is left out of it.
    """
    means = {}
    for key in sorted(set(map(tuple, labels.tolist()))):
        cell = values[(labels == key).all(axis=1)]
        present = ~np.isnan(cell)
        means[key] = {metric: float(np.mean(cell[has, j]))
                      for j, (metric, has) in enumerate(zip(METRIC_COLUMNS, present.T)) if has.any()}
    return means
