import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vda
from vda import model
from vda.corpus import ALL_CELLS, ConditionLabel
from vda.errors import StratificationError, UnderdeterminedError
from vda.features import N_FEATURES
from vda.model import (
    COLUMN_LABELS,
    M_LABELS,
    ObservationError,
    Observations,
    build_design_matrix,
    decomposition_table,
    fit_interactions,
    fit_ols,
    oaxaca_decompose,
    significance_band,
    three_fold,
)

from test_golden import MODEL_TOLERANCE


def _obs(e_tails, cells, ys):
    """Observations whose row i has e = [1, *e_tails[i]], label cells[i] and y ys[i]."""
    n = len(ys)
    e = np.column_stack([np.ones(n), np.reshape(e_tails, (n, 25))])
    return Observations(e, np.reshape([c.as_tuple() for c in cells], (n, 3)), ys)


def _concat(*parts):
    return Observations(*(np.concatenate([getattr(o, f) for o in parts]) for f in ("e", "labels", "y")))


def _random_obs(rng, per_cell=4):
    """``per_cell`` random rows per cell, as the stoi and the pesq Observations."""
    tails, cells, stoi, pesq = [], [], [], []
    for cell in ALL_CELLS:
        for _ in range(per_cell):
            tails.append(rng.uniform(0, 2, 25))
            cells.append(cell)
            stoi.append(float(rng.uniform(0, 1)))
            pesq.append(float(rng.uniform(1, 4.5)))
    return _obs(tails, cells, stoi), _obs(tails, cells, pesq)


# -------------------------------------------------------------- observations

def test_public_api_names_resolve():
    assert "Observations" in vda.__all__
    assert "ObservationRow" not in vda.__all__
    for name in vda.__all__:
        assert getattr(vda, name) is not None, name
    # the lazy namespace hands out each home module's own object
    for name in vda.__all__:
        value = getattr(vda, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    assert set(vda.__all__) <= set(dir(vda))
    star = {}
    exec("from vda import *", star)
    assert all(star[name] is getattr(vda, name) for name in vda.__all__)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vda.no_such_name


def _valid_parts(n=5):
    rng = np.random.default_rng(30)
    e = np.column_stack([np.ones(n), rng.uniform(0, 2, (n, 25))])
    labels = np.array([c.as_tuple() for c in ALL_CELLS[:n]])
    return e, labels, rng.uniform(0, 1, n)


def test_observations_store_checked_arrays():
    e, labels, y = _valid_parts()
    obs = Observations(e, labels, y)
    assert len(obs) == 5
    assert obs.labels.dtype == bool
    np.testing.assert_array_equal(obs.labels, labels == 1)
    assert Observations(e, labels == 1, y).labels.dtype == bool


@pytest.mark.parametrize("part,index,value", [
    ("e", (3, 0), 0.5),  # intercept column not 1
    ("e", (3, 7), -0.25),
    ("e", (3, 12), np.inf),
    ("labels", (3, 1), 2),
    ("y", 3, np.nan),
])
def test_observations_reject_bad_row(part, index, value):
    parts = dict(zip(("e", "labels", "y"), _valid_parts()))
    parts[part][index] = value
    with pytest.raises(ValueError, match=r"^row 3: ") as info:
        Observations(**parts)
    assert isinstance(info.value, ObservationError)
    assert (info.value.row, info.value.field) == (3, part)


@pytest.mark.parametrize("part", ["e", "labels", "y"])
def test_observations_reject_mismatched_lengths(part):
    parts = dict(zip(("e", "labels", "y"), _valid_parts()))
    parts[part] = parts[part][:-1]
    with pytest.raises(ValueError, match="expected e"):
        Observations(**parts)


# ------------------------------------------------------------- design matrix

def test_design_single_nonzero_for_base_cell():
    e = np.zeros(25)
    dm = build_design_matrix(_obs([e], [ConditionLabel(0, 0, 0)], [0.5]))
    assert dm.shape == (1, 208)
    nz = np.flatnonzero(dm[0])
    assert list(nz) == [0]
    assert COLUMN_LABELS[0] == (0, "1")


def test_design_all_ones_row():
    dm = build_design_matrix(_obs([np.ones(25)], [ConditionLabel(1, 1, 1)], [0.5]))
    assert np.all(dm[0] == 1.0)


def test_design_eligible_groups_oracle():
    # oracle: enumerate the interaction set and evaluate each product by hand
    label = ConditionLabel(1, 0, 1)
    bits = {"G": 1, "C": 0, "D": 1}
    expected = set()
    for m in M_LABELS:
        value = 1
        for name in ("G", "C", "D"):
            if name in m and not bits[name]:
                value = 0
        if value:
            expected.add(m)
    assert expected == {"1", "G", "D", "G*D"}
    dm = build_design_matrix(_obs([np.ones(25)], [label], [0.5]))
    nonzero_groups = {m for (i, m), v in zip(COLUMN_LABELS, dm[0]) if v != 0}
    assert nonzero_groups == expected
    assert sum(1 for (_, m) in COLUMN_LABELS if m in expected) == 104


def test_design_always_208_columns():
    rng = np.random.default_rng(0)
    for per_cell in (1, 3):
        dm = build_design_matrix(_random_obs(rng, per_cell)[0])
        assert dm.shape[1] == 208
        assert len(COLUMN_LABELS) == 208


def test_design_empty_rows_rejected():
    with pytest.raises(ValueError):
        build_design_matrix(_obs([], [], []))


# ------------------------------------------------------------------- fit_ols

def test_fit_exact_single_coefficient():
    rng = np.random.default_rng(1)
    tails = [rng.uniform(0, 2, 25) for _ in range(40)]
    dm = build_design_matrix(_obs(tails, [ConditionLabel(0, 0, 0)] * 40, np.zeros(40)))
    y = 2.0 * dm[:, 0]
    fit = fit_ols(dm, y)
    assert fit.theta[0] == pytest.approx(2.0, abs=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)


def test_fit_planted_recovery():
    rng = np.random.default_rng(2)
    tails = [rng.uniform(0, 2, 25) for _ in range(500)]
    dm = build_design_matrix(_obs(tails, [ALL_CELLS[i % 8] for i in range(500)], np.zeros(500)))
    theta_true = rng.standard_normal(208)
    y = dm @ theta_true + 1e-6 * rng.standard_normal(500)
    fit = fit_ols(dm, y)
    assert np.max(np.abs(fit.theta - theta_true)) < 1e-4
    assert fit.dof == 500 - 208


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(40, 201))
        p = int(rng.integers(5, 51))
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = fit_ols(x, y)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        np.testing.assert_allclose(fit.theta, oracle, atol=1e-8)


def test_fit_duplicate_column_dropped():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 8))
    x[:, 5] = x[:, 2]
    y = rng.standard_normal(60)
    fit = fit_ols(x, y)
    assert not fit.retained[5]
    assert fit.theta[5] == 0.0
    assert np.isnan(fit.p_value[5])
    reduced = fit_ols(np.delete(x, 5, axis=1), y)
    np.testing.assert_allclose(x @ fit.theta, np.delete(x, 5, axis=1) @ reduced.theta, atol=1e-9)


def test_fit_residual_orthogonal_to_retained():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((120, 30))
    y = rng.standard_normal(120)
    fit = fit_ols(x, y)
    resid = y - x @ fit.theta
    assert np.max(np.abs(x.T @ resid)) <= 1e-6 * np.linalg.norm(y)


def test_fit_row_permutation_invariant():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 12))
    y = rng.standard_normal(80)
    fit = fit_ols(x, y)
    perm = rng.permutation(80)
    fit_p = fit_ols(x[perm], y[perm])
    assert np.max(np.abs(fit.theta - fit_p.theta)) <= 1e-10


def test_fit_saturated_design_keeps_one_dof():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 50))
    y = rng.standard_normal(20)
    fit = fit_ols(x, y)
    assert fit.retained.sum() == 19
    assert fit.dof == 1
    assert np.isfinite(fit.residual_variance)


def _gram_schmidt_columns(a, tol, max_rank):
    """Reference column selection: Gram-Schmidt with reorthogonalization in
    index order, keeping at most ``max_rank`` columns."""
    n, p = a.shape
    q = np.empty((n, 0))
    retained = []
    for j in range(p):
        if len(retained) >= max_rank:
            continue
        v = a[:, j].astype(np.float64).copy()
        if q.shape[1]:
            v -= q @ (q.T @ v)
            v -= q @ (q.T @ v)
        pivot = float(np.linalg.norm(v))
        if pivot > tol:
            retained.append(j)
            q = np.hstack([q, (v / pivot)[:, None]])
    return retained


def _planted_design(rng, n, p):
    """Random columns scaled from 1e-3 to 1e3, with some replaced by a zero
    column, a duplicate or a linear combination of earlier columns."""
    a = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, p)
    for j in rng.choice(np.arange(2, p), size=max(1, p // 6), replace=False):
        kind = rng.integers(3)
        if kind == 0:
            a[:, j] = 0.0
        elif kind == 1:
            a[:, j] = a[:, rng.integers(j)]
        else:
            src = rng.choice(j, size=2, replace=False)
            a[:, j] = a[:, src] @ rng.uniform(-2, 2, 2)
    return a


@pytest.mark.parametrize("shape", ["tall", "wide"])
def test_fit_column_selection_matches_gram_schmidt(shape):
    rng = np.random.default_rng(20 if shape == "tall" else 21)
    for _ in range(60):
        if shape == "tall":
            n = int(rng.integers(30, 120))
            p = int(rng.integers(6, n // 2))
        else:
            n = int(rng.integers(8, 40))
            p = int(rng.integers(n, 2 * n + 10))
        a = _planted_design(rng, n, p)
        y = a @ rng.standard_normal(p) / np.linalg.norm(a, axis=0).max() + rng.standard_normal(n)
        tol = model.PIVOT_RTOL * np.linalg.norm(a, axis=0).max()
        keep = _gram_schmidt_columns(a, tol, max_rank=n - 1)
        fit = fit_ols(a, y)
        mask = np.zeros(p, dtype=bool)
        mask[keep] = True
        np.testing.assert_array_equal(fit.retained, mask)
        assert fit.dof == n - len(keep)
        ref = np.zeros(p)
        ref[keep] = np.linalg.lstsq(a[:, keep], y, rcond=None)[0]
        np.testing.assert_allclose(fit.theta, ref, rtol=1e-6, atol=1e-8)


def test_fit_underdetermined_and_nonfinite():
    with pytest.raises(UnderdeterminedError):
        fit_ols(np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError):
        fit_ols(np.ones((5, 2)), np.array([1.0, np.nan, 0.0, 0.0, 0.0]))


def test_fit_n_obs_contract():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((30, 6))
    x[:, 4] = x[:, 1]
    y = rng.standard_normal(30)
    with pytest.raises(ValueError, match="n_obs"):
        fit_ols(x, y, n_obs=29)
    with pytest.raises(UnderdeterminedError):
        fit_ols(x[:1], y[:1], n_obs=1)
    assert fit_ols(x, y, n_obs=45).dof == 45 - 5
    # the R of one QR of [x, y] stands for the 30 rows
    r = np.linalg.qr(np.column_stack([x, y]), mode="r")
    stacked, raw = fit_ols(r[:, :6], r[:, 6], n_obs=30), fit_ols(x, y)
    np.testing.assert_array_equal(stacked.retained, raw.retained)
    assert stacked.dof == raw.dof == 30 - 5
    for name in ("theta", "std_err", "residual_variance"):
        np.testing.assert_allclose(getattr(stacked, name), getattr(raw, name), rtol=1e-12, atol=1e-15)


def test_fit_p_value_monotone_in_t():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((100, 10))
    y = x[:, 0] * 0.5 + rng.standard_normal(100)
    fit = fit_ols(x, y)
    kept = fit.retained
    ts = np.abs(fit.t_stat[kept])
    ps = fit.p_value[kept]
    order = np.argsort(ts)
    assert np.all(np.diff(ps[order]) <= 1e-12)


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 27, 128, 216, 2000, 19792, 10 ** 6, 10 ** 8])
def test_two_sided_p_matches_scipy_stdtr(dof):
    from scipy.special import stdtr

    t = np.logspace(-6, 2.5, 300)
    ref = 2.0 * stdtr(dof, -t)
    for sign in (1.0, -1.0):
        got = model._two_sided_t_p(sign * t, dof)
        # relative below the normal range is not defined: a subnormal has few significant bits
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=np.finfo(np.float64).tiny)
    np.testing.assert_array_equal(model._two_sided_t_p(np.array([0.0, np.inf, -np.inf, np.nan]), dof),
                                  [1.0, 0.0, 0.0, np.nan])


def test_stratum_theta_is_fit_ols_theta():
    obs, _ = _random_obs(np.random.default_rng(22), per_cell=6)
    cells = model._cell_factors(obs)
    obs_ind = model._indicators(obs.labels)
    for m in range(len(M_LABELS)):
        for side in (True, False) if m else (True,):
            rows, stack_rows = obs_ind[:, m] == side, cells.ind[:, m] == side
            _, coef = model._stratum(cells, m, side)
            e, ind, y = (part[stack_rows] for part in cells[:3])
            terms = model._reduced_terms(ind)
            fit = fit_ols(model._cross(e, ind[:, terms]), y, n_obs=int(rows.sum()))
            assert list(coef) == terms
            np.testing.assert_array_equal(np.concatenate(list(coef.values())), fit.theta)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sizes=st.lists(st.one_of(st.just(0), st.integers(2, 300)), min_size=8, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_stratum_means_from_cell_sums_are_the_row_means(sizes, seed, scale):
    # each stratum's feature means come from its cells' row counts and
    # column sums; they must be the means over its raw rows
    obs = _sized_obs(sizes, seed, False)
    obs = Observations(obs.e * np.r_[1.0, np.full(25, scale)], obs.labels, obs.y)
    cells = model._cell_factors(obs)
    obs_ind = model._indicators(obs.labels)
    for m in range(len(M_LABELS)):
        for side in (True, False):
            rows = obs_ind[:, m] == side
            if rows.sum() >= 2:
                np.testing.assert_allclose(model._stratum(cells, m, side)[0], obs.e[rows].mean(axis=0),
                                           rtol=1e-12, atol=0)


# -------------------------------------------------------------- significance

@pytest.mark.parametrize(
    "p,band",
    [
        (0.0, "strong"),
        (0.01, "strong"),
        (0.010000001, "medium"),
        (0.05, "medium"),
        (0.0500001, "weak"),
        (0.10, "weak"),
        (0.100001, "none"),
        (0.5, "none"),
        (1.0, "none"),
    ],
)
def test_significance_band_boundaries(p, band):
    assert significance_band(p) == band


def test_significance_band_rejects_out_of_range():
    with pytest.raises(ValueError):
        significance_band(1.5)


# ------------------------------------------------------------------- oaxaca

def test_three_fold_hand_oracle_exact():
    dec = three_fold(np.array([3.0]), np.array([1.0]), np.array([5.0]), np.array([2.0]), "G")
    assert (dec.endowment, dec.coefficient, dec.interaction, dec.collective) == (4.0, 9.0, 6.0, 19.0)


def test_oaxaca_end_to_end_hand_case():
    def group(xs, slope, label):
        return _obs([np.concatenate([[x], np.zeros(24)]) for x in xs], [label] * len(xs),
                    [slope * x for x in xs])

    obs = _concat(group([0.5, 1.0, 1.5, 1.0], 2.0, ConditionLabel(0, 0, 0)),
                  group([2.5, 3.0, 3.5, 3.0], 5.0, ConditionLabel(0, 0, 1)))
    dec = oaxaca_decompose(obs, "D", reference="stratum")
    assert dec.endowment == pytest.approx(4.0, abs=1e-9)
    assert dec.coefficient == pytest.approx(9.0, abs=1e-9)
    assert dec.interaction == pytest.approx(6.0, abs=1e-9)
    assert dec.collective == pytest.approx(19.0, abs=1e-9)


def test_oaxaca_identical_strata_all_zero():
    rng = np.random.default_rng(9)
    tails = [rng.uniform(0, 2, 25) for _ in range(6)]
    ys = [float(rng.uniform(0, 1)) for _ in range(6)]
    obs = _obs(tails * 2, [ConditionLabel(0, 0, 0)] * 6 + [ConditionLabel(1, 0, 0)] * 6, ys * 2)
    dec = oaxaca_decompose(obs, "G")
    assert dec.endowment == pytest.approx(0.0, abs=1e-9)
    assert dec.coefficient == pytest.approx(0.0, abs=1e-9)
    assert dec.interaction == pytest.approx(0.0, abs=1e-9)
    assert dec.collective == pytest.approx(0.0, abs=1e-9)


def test_oaxaca_additivity_exact():
    rng = np.random.default_rng(10)
    pair = _random_obs(rng, per_cell=8)
    for indicator in M_LABELS[1:]:
        for obs in pair:
            dec = oaxaca_decompose(obs, indicator)
            assert dec.collective - (dec.endowment + dec.coefficient + dec.interaction) == 0.0


def test_oaxaca_zero_error_reference_has_pure_endowment():
    rng = np.random.default_rng(11)
    obs = _random_obs(rng, per_cell=6)[0]
    dec = oaxaca_decompose(obs, "1", reference="zero-error")
    assert dec.coefficient == 0.0
    assert dec.interaction == 0.0
    assert dec.collective == dec.endowment


def test_oaxaca_unit_indicator_requires_zero_error_reference():
    rng = np.random.default_rng(12)
    obs = _random_obs(rng, per_cell=2)[0]
    with pytest.raises(StratificationError):
        oaxaca_decompose(obs, "1", reference="stratum")


def test_oaxaca_empty_stratum_errors():
    rng = np.random.default_rng(13)
    tails = [rng.uniform(0, 2, 25) for _ in range(8)]
    obs = _obs(tails, [ConditionLabel(0, 0, 0)] * 8, [0.5] * 8)
    with pytest.raises(StratificationError):
        oaxaca_decompose(obs, "G")


def test_decomposition_table_order_and_additivity():
    rng = np.random.default_rng(15)
    obs = _random_obs(rng, per_cell=6)[0]
    table = decomposition_table(obs)
    assert [d.indicator for d in table] == list(M_LABELS)
    for dec in table:
        assert dec.collective - (dec.endowment + dec.coefficient + dec.interaction) == 0.0


def test_decomposition_table_identical_cells_zero_contrasts():
    rng = np.random.default_rng(16)
    tails = [rng.uniform(0, 2, 25) for _ in range(5)]
    ys = [float(rng.uniform(0, 1)) for _ in range(5)]
    obs = _obs(tails * 8, [cell for cell in ALL_CELLS for _ in range(5)], ys * 8)
    table = decomposition_table(obs)
    for dec in table[1:]:  # every row except the baseline convention row
        assert dec.endowment == pytest.approx(0.0, abs=1e-9)
        assert dec.coefficient == pytest.approx(0.0, abs=1e-9)
        assert dec.interaction == pytest.approx(0.0, abs=1e-9)
        assert dec.collective == pytest.approx(0.0, abs=1e-9)


def test_decomposition_table_missing_cell_named():
    rng = np.random.default_rng(17)
    cells = [cell for cell in ALL_CELLS if cell != ConditionLabel(1, 0, 1) for _ in range(3)]
    obs = _obs([rng.uniform(0, 2, 25) for _ in cells], cells, [0.5] * len(cells))
    with pytest.raises(StratificationError, match=r"G=1, C=0, D=1"):
        decomposition_table(obs)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_m_value_matches_bit_product(seed):
    rng = np.random.default_rng(seed)
    g, c, d = rng.integers(0, 2, 3)
    label = ConditionLabel(int(g), int(c), int(d))
    products = {
        "1": 1, "G": g, "C": c, "D": d,
        "G*C": g * c, "G*D": g * d, "C*D": c * d, "G*C*D": g * c * d,
    }
    ind = model._indicators(np.array([label.as_tuple()], dtype=bool))[0]
    for m, want in products.items():
        assert ind[M_LABELS.index(m)] == want


# ------------------------------------------------------- per-cell R factors

def _assert_model_close(got, ref, label):
    """``got`` within ``MODEL_TOLERANCE`` of ``ref`` (NaN where ``ref`` is NaN)."""
    rtol, atol, scale = MODEL_TOLERANCE
    got, ref = np.atleast_1d(got), np.atleast_1d(ref)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref), err_msg=label)
    got, ref = got[~np.isnan(ref)], ref[~np.isnan(ref)]
    bound = rtol * np.abs(ref) + atol + scale * np.max(np.abs(ref), initial=0.0)
    assert np.all(np.abs(got - ref) <= bound), label


def _assert_same_fit(got, ref, label):
    np.testing.assert_array_equal(got.retained, ref.retained, err_msg=label)
    assert got.dof == ref.dof, label
    for name in ("theta", "std_err", "residual_variance"):
        _assert_model_close(getattr(got, name), getattr(ref, name), f"{label} {name}")


def _raw_stratum(obs, rows):
    """Reference stratum fit on the raw design of the stratum's rows: the
    feature means and the coefficients of each reduced term."""
    e, labels, y = obs.e[rows], obs.labels[rows], obs.y[rows]
    design = build_design_matrix(Observations(e, labels, y))
    terms = model._reduced_terms(design[:, ::N_FEATURES] == 1.0)  # each term's e0 column
    fit = fit_ols(design[:, [m * N_FEATURES + i for m in terms for i in range(N_FEATURES)]], y)
    return fit, e.mean(axis=0), terms


def _sized_obs(sizes, seed, duplicate):
    """``sizes[k]`` random rows in cell ``ALL_CELLS[k]``; with ``duplicate``
    one error column repeats an earlier one on every row."""
    rng = np.random.default_rng(seed)
    cells = [cell for cell, size in zip(ALL_CELLS, sizes) for _ in range(size)]
    tails = rng.uniform(0, 2, (len(cells), 25))
    if duplicate:
        tails[:, 20] = tails[:, 7]
    return _obs(tails, cells, rng.uniform(0, 1, len(cells)))


def _result(fn, *args, **kwargs):
    """``fn``'s result, or the class of the UnderdeterminedError it raised."""
    try:
        return fn(*args, **kwargs)
    except UnderdeterminedError:
        return UnderdeterminedError


def _three_fold_of(strata, indicator, reference):
    """The decomposition from ``_raw_stratum`` results, 1 stratum first."""
    (fit1, xbar1, terms1), *zero = strata
    coef1 = dict(zip(terms1, fit1.theta.reshape(len(terms1), N_FEATURES)))
    if reference == "zero-error":
        theta1 = sum(coef1.values())
        return three_fold(xbar1, np.eye(N_FEATURES)[0], theta1, theta1, indicator)
    (fit0, xbar0, terms0), = zero
    coef0 = dict(zip(terms0, fit0.theta.reshape(len(terms0), N_FEATURES)))
    shared = [k for k in coef1 if k in coef0]
    return three_fold(xbar1, xbar0, sum(coef1[k] for k in shared),
                      sum(coef0[k] for k in shared), indicator)


@settings(max_examples=2, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 60), min_size=8, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1), duplicate=st.booleans())
@example(sizes=[40, 1, 1, 1, 1, 1, 1, 1], seed=0, duplicate=False)  # the stack is wider than tall
@example(sizes=[3, 26, 27, 28, 2, 9, 30, 5], seed=1, duplicate=True)
def test_per_cell_route_matches_raw_design(sizes, seed, duplicate):
    obs = _sized_obs(sizes, seed, duplicate)
    _assert_same_fit(fit_interactions(obs), fit_ols(build_design_matrix(obs), obs.y), "pooled fit")
    assert len(model._cell_factors(obs)[0]) == sum(min(size, N_FEATURES + 1) for size in sizes)

    obs_ind = build_design_matrix(obs)[:, ::N_FEATURES] == 1.0
    parts = ("endowment", "coefficient", "interaction", "collective")
    fits = []
    solve = model._solve

    def recording_solve(*args, **kwargs):
        fits.append(solve(*args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_solve", recording_solve)
        for m, indicator in enumerate(M_LABELS):
            for reference in ("zero-error", "stratum") if m else ("zero-error",):
                label = f"{indicator} {reference}"
                sides = (True, False) if reference == "stratum" else (True,)
                strata = [_result(_raw_stratum, obs, obs_ind[:, m] == side) for side in sides]
                fits.clear()
                dec = _result(oaxaca_decompose, obs, indicator, reference)
                if UnderdeterminedError in strata:  # a one-row stratum
                    assert dec is UnderdeterminedError, label
                    continue
                assert len(fits) == len(strata), label
                for (theta, retained, r, n), (ref, _, _) in zip(fits, strata):
                    np.testing.assert_array_equal(retained, ref.retained, err_msg=label)
                    assert n - (len(r) - 1) == ref.dof, label
                    _assert_model_close(theta, ref.theta, f"{label} stratum theta")
                ref = _three_fold_of(strata, indicator, reference)
                _assert_model_close([getattr(dec, k) for k in parts],
                                    [getattr(ref, k) for k in parts], label)


def test_model_stages_do_not_build_the_design():
    # 20 000 rows: the (n, 208) design alone would be 8 x obs.e.nbytes
    obs = _sized_obs([2500] * 8, 19, False)
    fit_interactions(obs)  # lazy imports and first-call set-up stay outside the traced region
    tracemalloc.start()
    try:
        fit_interactions(obs)
        decomposition_table(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * obs.e.nbytes
