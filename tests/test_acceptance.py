"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""
import time

import numpy as np
import pytest

from vda import metrics, model
from vda.cli import EXIT_OK, main
from vda.corpus import ALL_CELLS, ConditionLabel
from vda.features import extract_features
from vda.model import (
    COLUMN_LABELS,
    M_LABELS,
    Observations,
    build_design_matrix,
    decomposition_table,
    fit_ols,
    significance_band,
    three_fold,
)

from conftest import (identity_pair, make_speech_like, make_tone, make_vowel, noisy_pair,
                      run_seed7_pipeline)

RATE = 16000

# Published decomposition component triples (endowment, coefficient,
# interaction, collective), one row per interaction term, for the
# intelligibility and quality outcomes respectively.
STOI_DECOMPOSITION_ROWS = {
    "1": (-0.366, 0.000, 0.000, -0.366),
    "G": (-0.364, 0.062, 0.050, -0.252),
    "C": (-0.121, 0.066, 0.057, 0.002),
    "D": (-0.339, 0.018, -0.040, -0.361),
    "G*C": (-0.286, 0.093, 0.074, -0.119),
    "G*D": (-0.460, 0.043, 0.007, -0.409),
    "C*D": (-0.245, 0.043, 0.007, -0.196),
    "G*C*D": (-0.386, 0.075, 0.043, -0.269),
}
PESQ_DECOMPOSITION_ROWS = {
    "1": (-1.872, 0.000, 0.000, -1.872),
    "G": (-1.800, -0.577, -0.055, -2.432),
    "C": (-0.798, -0.827, -0.556, -2.181),
    "D": (-1.625, -0.750, -0.402, -2.777),
    "G*C": (-1.501, -0.815, -0.354, -2.669),
    "G*D": (-2.188, -0.754, -0.273, -3.216),
    "C*D": (-1.365, -1.030, -0.641, -3.037),
    "G*C*D": (-1.934, -0.969, -0.480, -3.382),
}


def _passed(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _random_obs(rng, per_cell):
    """``per_cell`` random rows per cell with a stoi-like outcome (a pesq-like
    value is drawn after it on each row and dropped)."""
    e, labels, y = [], [], []
    for cell in ALL_CELLS:
        for _ in range(per_cell):
            e.append(np.concatenate([[1.0], rng.uniform(0.0, 2.0, 25)]))
            labels.append(cell.as_tuple())
            y.append(float(rng.uniform(0.0, 1.0)))
            rng.uniform(1.0, 4.5)
    return Observations(np.array(e), np.array(labels), np.array(y))


def test_criterion_1_published_triples_additivity():
    start = time.perf_counter()
    for name, table in (("stoi", STOI_DECOMPOSITION_ROWS), ("pesq", PESQ_DECOMPOSITION_ROWS)):
        for indicator, (e, c, i, coll) in table.items():
            assert abs((e + c + i) - coll) <= 0.002, (name, indicator)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"16 published rows additive within 0.002 in {elapsed * 1000:.1f} ms")


def test_criterion_2_computed_decompositions_additive():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        table = decomposition_table(_random_obs(rng, per_cell=8))
        for dec in table:
            gap = abs(dec.collective - (dec.endowment + dec.coefficient + dec.interaction))
            worst = max(worst, gap)
            assert gap <= 1e-12
    _passed(2, f"50 seeded corpora x 8 indicators, worst additivity gap {worst:.3e}")


def test_criterion_3_hand_oracle_decomposition():
    dec = three_fold(np.array([3.0]), np.array([1.0]), np.array([5.0]), np.array([2.0]), "G")
    assert (dec.endowment, dec.coefficient, dec.interaction, dec.collective) == (4.0, 9.0, 6.0, 19.0)

    def group(xs, slope, label):
        e = np.zeros((len(xs), 26))
        e[:, 0], e[:, 1] = 1.0, xs
        return e, [label.as_tuple()] * len(xs), slope * np.array(xs)

    (e0, l0, y0), (e1, l1, y1) = (group([0.5, 1.0, 1.5, 1.0], 2.0, ConditionLabel(0, 0, 0)),
                                  group([2.5, 3.0, 3.5, 3.0], 5.0, ConditionLabel(0, 0, 1)))
    obs = Observations(np.vstack([e0, e1]), l0 + l1, np.concatenate([y0, y1]))
    dec2 = model.oaxaca_decompose(obs, "D")
    for got, want in zip(
        (dec2.endowment, dec2.coefficient, dec2.interaction, dec2.collective), (4.0, 9.0, 6.0, 19.0)
    ):
        assert got == pytest.approx(want, abs=1e-9)
    _passed(3, "two-group single-feature case yields (4, 9, 6, 19)")


def test_criterion_4_ols_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(60, 201))
        p = int(rng.integers(5, 51))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = fit_ols(x, y)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        worst = max(worst, float(np.max(np.abs(fit.theta - oracle))))
        assert worst <= 1e-8

    full = _random_obs(rng, per_cell=63)
    obs = Observations(full.e[:500], full.labels[:500], full.y[:500])
    design = build_design_matrix(obs)
    theta_true = rng.standard_normal(208)
    y = design @ theta_true + 1e-6 * rng.standard_normal(len(obs))
    fit = fit_ols(design, y)
    recovery = float(np.max(np.abs(fit.theta - theta_true)))
    assert recovery <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(4, f"100 systems worst dev {worst:.2e}, planted recovery {recovery:.2e}, {elapsed:.1f} s")


def test_criterion_5_metric_identities():
    pair = identity_pair(make_speech_like())
    assert metrics.stoi(pair) == pytest.approx(1.0, abs=1e-6)
    assert metrics.llr(pair) == pytest.approx(0.0, abs=1e-9)
    assert metrics.wss(pair) == 0.0
    assert metrics.snr_seg(pair) == 35.0
    high, mid, low = metrics.csii(pair)
    for v in (high, mid, low):
        assert v == pytest.approx(1.0, abs=1e-6)
    assert metrics.ncm(pair) == pytest.approx(1.0, abs=1e-3)
    _passed(5, "identity pair: stoi 1, llr 0, wss 0, snr_seg 35, csii (1,1,1), ncm 1")


def test_criterion_6_metric_monotonicity():
    start = time.perf_counter()
    sig = make_speech_like(seed=7)
    stoi_vals, ncm_vals, snr_vals = [], [], []
    for snr in (20.0, 10.0, 0.0, -10.0):
        pair = noisy_pair(sig, snr, seed=11)
        stoi_vals.append(metrics.stoi(pair))
        ncm_vals.append(metrics.ncm(pair))
        snr_vals.append(metrics.snr_seg(pair))
    for series in (stoi_vals, ncm_vals, snr_vals):
        assert all(a > b for a, b in zip(series, series[1:])), series
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(6, f"stoi/ncm/snr_seg strictly decreasing over 20..-10 dB in {elapsed:.1f} s")


def test_criterion_7_feature_oracles():
    tone = make_tone(440.0)
    fv = extract_features(tone)
    assert fv.x[11] == pytest.approx(48.0, abs=0.1)
    assert fv.x[12] < 1e-3
    assert fv.x[13] < 1e-2

    vowel = make_vowel(pole_freqs=(700.0, 1220.0, 2600.0))
    fv2 = extract_features(vowel)
    assert fv2.x[17] == pytest.approx(700.0, abs=50.0)
    assert fv2.x[20] == pytest.approx(1220.0, abs=50.0)
    assert fv2.x[23] == pytest.approx(2600.0, abs=50.0)
    _passed(7, "tone pitch/jitter/shimmer and vowel formants within stated bounds")


def test_criterion_8_design_matrix_law():
    rng = np.random.default_rng(5)
    for per_cell in (1, 2, 5):
        design = build_design_matrix(_random_obs(rng, per_cell))
        assert design.shape[1] == 208
        assert len(COLUMN_LABELS) == 208

    label = ConditionLabel(1, 0, 1)
    ind = model._indicators(np.array([label.as_tuple()], dtype=bool))[0]
    eligible = {m for m, v in zip(M_LABELS, ind) if v}
    assert eligible == {"1", "G", "D", "G*D"}
    e = np.concatenate([[1.0], rng.uniform(0.1, 2.0, 25)])
    design = build_design_matrix(Observations(e[None, :], [label.as_tuple()], [0.5]))
    nonzero_groups = {
        m for (i, m), v in zip(COLUMN_LABELS, design[0]) if v != 0.0
    }
    assert nonzero_groups == eligible
    _passed(8, "208 labeled columns; label (1,0,1) eligible groups {1, G, D, G*D}")


def test_criterion_9_end_to_end_determinism(seed7_run, tmp_path):
    first, first_s = seed7_run
    second, second_s = run_seed7_pipeline(tmp_path)
    assert first_s < 60.0 and second_s < 60.0
    files_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    _passed(9, f"two pipeline runs byte-identical; {first_s:.1f} s and {second_s:.1f} s")


def test_criterion_10_significance_band_boundaries():
    assert significance_band(0.01) == "strong"
    assert significance_band(0.05) == "medium"
    assert significance_band(0.10) == "weak"
    assert significance_band(0.01 + 1e-9) == "medium"
    assert significance_band(0.05 + 1e-9) == "weak"
    assert significance_band(0.10 + 1e-9) == "none"
    _passed(10, "banding boundaries inclusive at 0.01 / 0.05 / 0.10")
