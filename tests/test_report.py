import csv
import io
import json

import numpy as np
import pytest

from vda.metrics import COLUMNS
from vda.model import (
    COLUMN_LABELS,
    M_LABELS,
    N_COLUMNS,
    OaxacaDecomposition,
    RegressionFit,
    significance_band,
)
from vda.report import (
    AlignmentKeyError,
    cell_means,
    fit_records,
    render_comparison_table,
    render_decomposition_table,
    render_regression_table,
)


def _fit_with(theta0=1.23, p0=0.001):
    theta = np.zeros(N_COLUMNS)
    std_err = np.full(N_COLUMNS, np.nan)
    t_stat = np.full(N_COLUMNS, np.nan)
    p_value = np.full(N_COLUMNS, np.nan)
    retained = np.zeros(N_COLUMNS, dtype=bool)
    theta[0] = theta0
    std_err[0] = 0.1
    t_stat[0] = theta0 / 0.1
    p_value[0] = p0
    retained[0] = True
    theta[1] = -0.407
    std_err[1] = 0.5
    t_stat[1] = theta[1] / 0.5
    p_value[1] = 0.42
    retained[1] = True
    return RegressionFit(theta, std_err, t_stat, p_value, 0.01, 10, retained)


def test_regression_markdown_cell_and_band():
    fit = _fit_with()
    md = render_regression_table(fit)[".md"]
    assert "1.23***" in md  # strong band annotation
    assert "—" in md  # dropped columns render as an em dash cell


def test_regression_json_round_trip_exact():
    fit = _fit_with()
    parsed = json.loads(render_regression_table(fit)[".json"])
    by_key = {(r["feature_index"], r["interaction_label"]): r for r in parsed["coefficients"]}
    for j, key in enumerate(COLUMN_LABELS):
        if fit.retained[j]:
            assert by_key[key]["theta"] == fit.theta[j]
        else:
            assert by_key[key]["theta"] is None


def test_regression_band_matches_significance_band():
    fit = _fit_with(p0=0.03)
    parsed = json.loads(render_regression_table(fit)[".json"])
    for rec in parsed["coefficients"]:
        if rec["p"] is not None:
            assert rec["band"] == significance_band(rec["p"])


def test_fit_records_reject_other_widths():
    n = N_COLUMNS - 26
    fit = RegressionFit(np.zeros(n), np.zeros(n), np.zeros(n), np.full(n, 0.5), 0.01, 10,
                        np.ones(n, dtype=bool))
    with pytest.raises(ValueError, match=f"expected a fit of the {N_COLUMNS} design columns, got {n}"):
        fit_records(fit)


def test_regression_csv_parses_back():
    fit = _fit_with()
    lines = render_regression_table(fit)[".csv"].splitlines()
    assert lines[0].startswith("feature_index,interaction_label,theta")
    first = lines[1].split(",")
    assert float(first[2]) == fit.theta[0]


def _sample_table():
    rows = [
        OaxacaDecomposition("1", -0.366, 0.0, 0.0, -0.366),
        OaxacaDecomposition("G", -0.364, 0.062, 0.050, -0.252),
    ]
    rows += [OaxacaDecomposition(m, 0.0, 0.0, 0.0, 0.0) for m in M_LABELS[2:]]
    return rows


def test_decomposition_renders_three_decimals():
    texts = render_decomposition_table(_sample_table(), "stoi", "stratum")
    assert "G,1,0,0,-0.364,0.062,0.050,-0.252" in texts[".csv"]
    md = texts[".md"]
    assert "| G | 1 | 0 | 0 | -0.364 | 0.062 | 0.050 | -0.252 |" in md


def test_decomposition_zero_rows_render_zeros():
    csv_text = render_decomposition_table(_sample_table(), "stoi", "stratum")[".csv"]
    assert "C,0,1,0,0.000,0.000,0.000,0.000" in csv_text


def test_decomposition_csv_round_trip():
    table = _sample_table()
    parsed = list(csv.DictReader(io.StringIO(render_decomposition_table(table, "stoi", "stratum")[".csv"])))
    for dec, rec in zip(table, parsed):
        assert rec["indicator"] == dec.indicator
        for field in ("endowment", "coefficient", "interaction", "collective"):
            assert float(rec[field]) == pytest.approx(round(getattr(dec, field), 3), abs=1e-12)


def test_decomposition_json_full_precision():
    table = _sample_table()
    parsed = json.loads(render_decomposition_table(table, "stoi", "stratum")[".json"])
    assert parsed["rows"][1]["endowment"] == -0.364


def _aggregates(stoi=0.92, pesq=2.25):
    key = (1, 1, 1)
    return {key: {"stoi": stoi, "pesq": pesq}}


def test_comparison_zero_delta_positive():
    texts = render_comparison_table(_aggregates(), {"var": _aggregates()})
    assert "stoi,G1C1D1,0.92,+0.00" in texts[".csv"]
    md = texts[".md"]
    assert "| stoi | G1C1D1 | 0.92 | +0.00 (+) |" in md


def test_comparison_positive_delta():
    text = render_comparison_table(_aggregates(), {"var": _aggregates(pesq=2.27)})[".csv"]
    assert "pesq,G1C1D1,2.25,+0.02" in text


def test_comparison_negative_polarity():
    md = render_comparison_table(_aggregates(), {"var": _aggregates(stoi=0.90)})[".md"]
    assert "| stoi | G1C1D1 | 0.92 | -0.02 (-) |" in md


def test_comparison_key_mismatch_lists_keys():
    base = _aggregates()
    bad_variant = {(0, 0, 0): {"stoi": 0.5}}
    with pytest.raises(AlignmentKeyError, match=r"\(1, 1, 1\)"):
        render_comparison_table(base, {"v": bad_variant})


def test_comparison_without_variants():
    text = render_comparison_table(_aggregates(), {})[".csv"]
    assert "stoi,G1C1D1,0.92" in text


def test_cell_means():
    labels = np.array([(0, 0, 0), (0, 0, 0), (1, 0, 0)])
    values = np.full((3, len(COLUMNS)), np.nan)
    values[:, COLUMNS.index("stoi")] = (0.8, 0.6, 0.5)
    values[1, COLUMNS.index("pesq")] = 2.0
    agg = cell_means(labels, values)
    assert agg[(0, 0, 0)]["stoi"] == pytest.approx(0.7)
    assert agg[(0, 0, 0)]["pesq"] == pytest.approx(2.0)  # absent values skipped
    assert agg[(1, 0, 0)]["stoi"] == pytest.approx(0.5)
    assert "pesq" not in agg[(1, 0, 0)]
