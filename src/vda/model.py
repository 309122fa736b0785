"""Interaction regression and three-fold gap decomposition.

The design matrix crosses the 26 feature-error entries with the eight
main-effect/interaction indicators {1, G, C, D, G*C, G*D, C*D, G*C*D}.
Fits are ordinary least squares with rank-revealing column dropping;
decompositions split a between-stratum outcome difference into endowment,
coefficient, and interaction components whose sum is the collective effect.

Every design column is a feature error times a 0/1 function of the row's
G/C/D cell, so ``fit_interactions``, ``oaxaca_decompose`` and
``decomposition_table`` never build the (n, 208) design: they reduce each
cell's rows to the R of one QR of its [e, y] and fit on the stack of the
R factors of the cells in the fit, which has the design's Gram matrix.
``build_design_matrix`` gives the raw design for library callers and as the
reference the tests compare with.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .corpus import ALL_CELLS, N_FEATURES, Frozen
from .errors import StratificationError, UnderdeterminedError

# Interaction set in canonical order; row m of M_BITS names the indicators
# (G, C, D) whose product forms term m.
M_LABELS = ("1", "G", "C", "D", "G*C", "G*D", "C*D", "G*C*D")
M_BITS = np.array([[name in m for name in "GCD"] for m in M_LABELS])
M_BITS.flags.writeable = False

N_COLUMNS = N_FEATURES * len(M_LABELS)
# (feature index, term) of each design column, in the term-major order of _cross.
COLUMN_LABELS = tuple((i, m) for m in M_LABELS for i in range(N_FEATURES))

PIVOT_RTOL = 1e-10

def _indicators(labels: np.ndarray) -> np.ndarray:
    """(n, 8) indicator table of (n, 3) bool G/C/D labels: term m is 1 on a
    row when no indicator it names is unset (a boolean matrix product)."""
    return ~(~labels @ M_BITS.T)


def _cross(e: np.ndarray, ind: np.ndarray) -> np.ndarray:
    """Design columns (term, feature) in term-major order: ``e`` where the
    term's indicator is 1, else 0.0 (``np.where`` so no -0.0 appears)."""
    return np.where(ind[:, :, None], e[:, None, :], 0.0).reshape(len(e), ind.shape[1] * e.shape[1])


class ObservationError(ValueError):
    """An ``Observations`` check failed on ``row`` of ``field`` ('e', 'labels' or 'y')."""

    def __init__(self, row: int, field: str, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row, self.field, self.reason = row, field, reason


class Observations(Frozen):
    """The model's input, one row per pair: feature errors ``e`` (n, 26) with
    ``e[:, 0] == 1``, finite and non-negative; G/C/D ``labels`` (n, 3) as 0/1
    (int or bool, stored bool); and the finite outcome ``y`` (n,)."""

    __slots__ = ("e", "labels", "y")

    def __init__(self, e: np.ndarray, labels: np.ndarray, y: np.ndarray):
        e = np.asarray(e, dtype=np.float64)
        labels = np.asarray(labels)
        y = np.asarray(y, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != N_FEATURES or labels.shape != (len(e), 3) \
                or y.shape != (len(e),):
            raise ValueError(f"expected e (n, {N_FEATURES}), labels (n, 3) and y (n,); "
                             f"got {e.shape}, {labels.shape} and {y.shape}")
        for field, bad, reason in (
            ("e", e[:, 0] != 1.0, "error index 0 must be the constant 1"),
            ("e", ~np.all(np.isfinite(e) & (e >= 0), axis=1),
             "error values must be finite and non-negative"),
            ("labels", ~np.all((labels == 0) | (labels == 1), axis=1),
             "G/C/D indicators must be 0 or 1"),
            ("y", ~np.isfinite(y), "outcome values must be finite"),
        ):
            if bad.any():
                raise ObservationError(int(np.argmax(bad)), field, reason)
        super().__init__(e, labels.astype(bool), y)

    def __len__(self) -> int:
        return len(self.y)


class RegressionFit(NamedTuple):
    theta: np.ndarray
    std_err: np.ndarray  # NaN on dropped columns
    t_stat: np.ndarray
    p_value: np.ndarray
    residual_variance: float
    dof: int
    retained: np.ndarray  # bool per column


class OaxacaDecomposition(NamedTuple):
    indicator: str
    endowment: float
    coefficient: float
    interaction: float
    collective: float


def build_design_matrix(obs: Observations) -> np.ndarray:
    """(n, N_COLUMNS) design with column (i, m) of ``COLUMN_LABELS`` holding
    m(label) * e[i] per row."""
    if not len(obs):
        raise ValueError("need at least one observation row")
    return _cross(obs.e, _indicators(obs.labels))


def fit_ols(design: np.ndarray, y: np.ndarray, n_obs: int | None = None) -> RegressionFit:
    """Minimum-residual least squares with deterministic column dropping.

    ``design`` and ``y`` are either the raw rows or any stack of rows whose
    ``[design, y]`` has the same Gram matrix (as the per-cell R factors of
    ``fit_interactions`` do); ``n_obs``, the number of observations behind
    them (default ``len(y)``), sets the candidate cap and the degrees of
    freedom.

    The candidate columns, at most the first n_obs - 1 in index order so the
    residual always keeps one degree of freedom, are factored together with
    ``y`` by one unpivoted QR (zero rows stand in for rows the stack does not
    have). If some |R_jj| of a candidate is at most 1e-10 of the largest
    column norm, the first such column is dropped (theta 0, p-value NaN), the
    next column moves up into the candidates and they are factored again;
    otherwise theta solves that R against its last column, and the residual
    sum of squares is the square of its last diagonal entry. Standard errors
    are classical homoskedastic; p-values are two-sided t.
    """
    theta, retained, r, n = _solve(design, y, n_obs)
    rank = len(r) - 1
    dof = n - rank
    sigma2 = float(r[rank, rank]) ** 2 / dof
    cov_diag = sigma2 * np.sum(np.linalg.inv(r[:rank, :rank]) ** 2, axis=1)
    se_r = np.sqrt(np.maximum(cov_diag, 0.0))
    theta_r = theta[retained]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_r = np.where(se_r > 0.0, theta_r / se_r, np.inf * np.sign(theta_r))

    p = len(theta)
    std_err = np.full(p, np.nan)
    t_stat = np.full(p, np.nan)
    p_value = np.full(p, np.nan)
    std_err[retained] = se_r
    t_stat[retained] = t_r
    p_value[retained] = _two_sided_t_p(t_r, dof)
    return RegressionFit(theta, std_err, t_stat, p_value, sigma2, dof, retained)


def _solve(design: np.ndarray, y: np.ndarray,
           n_obs: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The column selection, QR and theta of ``fit_ols``, for callers that
    need no standard errors or p-values: theta (p,), the retained mask (p,),
    the (rank + 1, rank + 1) R of [retained columns, y] and n_obs."""
    a = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("outcome vector contains non-finite values")
    m, p = a.shape
    if len(y) != m:
        raise ValueError("outcome length does not match the design")
    n = m if n_obs is None else n_obs
    if n < m:
        raise ValueError(f"n_obs {n} is less than the {m} design rows")
    if n < 2:
        raise UnderdeterminedError("need at least two observations")

    col_norms = np.linalg.norm(a, axis=0)
    tol = PIVOT_RTOL * (col_norms.max() if p else 0.0)
    candidates = list(range(p))
    while True:
        retained_idx = candidates[:n - 1]
        if not retained_idx:
            raise UnderdeterminedError("no usable design column")
        rank = len(retained_idx)
        r = np.linalg.qr(np.column_stack([a[:, retained_idx], y]), mode="r")
        r = np.vstack([r, np.zeros((rank + 1 - len(r), rank + 1))])
        small = np.flatnonzero(np.abs(np.diag(r)[:rank]) <= tol)
        if not small.size:
            break
        del candidates[small[0]]

    theta = np.zeros(p)
    retained = np.zeros(p, dtype=bool)
    theta[retained_idx] = np.linalg.solve(r[:rank, :rank], r[:rank, rank])
    retained[retained_idx] = True
    return theta, retained, r, n


def _two_sided_t_p(t: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided p-values 2 P(T > |t|) of Student's t with ``dof`` degrees of
    freedom: 0 at t = +-inf, NaN at NaN.

    That is the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t^2), evaluated by a continued fraction (modified Lentz)
    in a variable that t^2 gives without rounding near x = 1, where a rounded
    x would cost about dof/2 ulps at large dof. Where the fraction in x
    converges slowly, x > (a + 1) / (a + b + 2), it is the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) with the fraction in 1 - x, taken as
    t^2 / (dof + t^2); elsewhere it is the fraction in the odds
    x / (1 - x) = dof / t^2. x^a is exp(-a log1p(t^2 / dof)), and the
    prefactor's lgamma(a + 1/2) - lgamma(a) comes from _log_gamma_half_step.
    """
    t2 = np.square(np.asarray(t, dtype=np.float64))
    p_value = np.where(np.isnan(t2), np.nan, 0.0)
    finite = np.isfinite(t2)
    t2 = t2[finite]
    x, x1 = dof / (dof + t2), t2 / (dof + t2)
    a, b = dof / 2.0, 0.5
    swap = x > (a + 1.0) / (a + b + 2.0)  # true at t = 0, so dof / t^2 stays finite
    log_fraction = np.empty_like(t2)
    log_fraction[swap] = np.log(_beta_fraction(b, a, x1[swap]) / b)
    log_fraction[~swap] = np.log(_beta_odds_fraction(a, b, dof / t2[~swap]) / (a * x1[~swap]))
    with np.errstate(divide="ignore"):  # x1 = 0 at t = 0, where p is 1
        # one exp of the summed logs, so the tail underflows only where it is below the
        # float range and not where the prefactor alone is
        tail = np.exp(-a * np.log1p(t2 / dof) + b * np.log(x1) + _log_gamma_half_step(a)
                      - math.lgamma(b) + log_fraction)
    p_value[finite] = np.where(swap, 1.0 - tail, tail)
    return p_value


# Above this a, _log_gamma_half_step sums its asymptotic series, whose first
# omitted term, 691 / (1441792 a^11), is then below 1e-18.
_HALF_STEP_SERIES_FROM = 20.0


def _log_gamma_half_step(a: float) -> float:
    """lgamma(a + 1/2) - lgamma(a) for a > 0.

    Taken as the difference of two ``math.lgamma`` values, it carries an
    absolute error of about one ulp of lgamma(a), which grows with a (about
    1e-9 at a = 5e7). Above _HALF_STEP_SERIES_FROM it is the asymptotic series
    (1/2) ln a - 1/(8a) + 1/(192 a^3) - 1/(640 a^5) + 17/(14336 a^7)
    - 31/(18432 a^9), whose terms are (2^(1-k) - 2) B_k / (k (k-1) a^(k-1))
    for the even Bernoulli numbers B_k (from Stirling's series of
    lgamma(a + h) - lgamma(a) at h = 1/2).
    """
    if a < _HALF_STEP_SERIES_FROM:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv2 = 1.0 / (a * a)
    series = -1.0 / 8.0 + inv2 * (1.0 / 192.0 + inv2 * (-1.0 / 640.0 + inv2 * (
        17.0 / 14336.0 - inv2 * 31.0 / 18432.0)))
    return 0.5 * math.log(a) + series / a


_LENTZ_TINY = 1e-300
_LENTZ_MAX_TERMS = 10_000


def _beta_fraction(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b))),
    elementwise; it converges quickly where x < (a + 1) / (a + b + 2)."""
    return _lentz(-(a + b) * x / (a + 1.0),
                  lambda k: (k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)),
                             -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0))))


def _beta_odds_fraction(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) / (x^a (1-x)^(b-1) / (a B(a, b)))
    in the odds z = x / (1 - x), elementwise (Cephes' second expansion,
    ``incbd``). Its terms depend on x only through z; for b = 1/2 they are
    all positive."""
    return _lentz(z * (1.0 - b) / (a + 1.0),
                  lambda k: (z * k * (a + b + k - 1.0) / ((a + 2 * k - 1.0) * (a + 2 * k)),
                             z * (a + k) * (k + 1.0 - b) / ((a + 2 * k) * (a + 2 * k + 1.0))))


def _lentz(first: np.ndarray,
           pair: Callable[[int], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """1 / (1 + c_1 / (1 + c_2 / (1 + ...))), elementwise, by the modified
    Lentz method, for c_1 = ``first`` and (c_2k, c_2k+1) = ``pair(k)``."""
    def nudged(v):
        return np.where(np.abs(v) < _LENTZ_TINY, _LENTZ_TINY, v)

    c = np.ones_like(first)
    d = 1.0 / nudged(1.0 + first)
    h = d
    active = np.ones(first.shape, dtype=bool)
    for k in range(1, _LENTZ_MAX_TERMS + 1):
        for coeff in pair(k):
            d = 1.0 / nudged(1.0 + coeff * d)
            c = nudged(1.0 + coeff / c)
            step = d * c
            h = np.where(active, h * step, h)
        active &= np.abs(step - 1.0) > np.finfo(np.float64).eps
        if not active.any():
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge in {_LENTZ_MAX_TERMS} terms")


# The (8, 3) G/C/D labels of ALL_CELLS; a cell's code 4 G + 2 C + D is its row.
_CELL_LABELS = np.array(ALL_CELLS, dtype=bool)


class _Cells(NamedTuple):
    """A model input reduced cell by cell (``_cell_factors``): the stacked R
    factors with each stack row's indicator row, and per present cell its
    code, indicator row, row count and column sums of ``e``."""

    e: np.ndarray  # (m, 26)
    ind: np.ndarray  # (m, 8)
    y: np.ndarray  # (m,)
    codes: np.ndarray  # (k,) 4 G + 2 C + D, the cell's index in ALL_CELLS
    cell_ind: np.ndarray  # (k, 8)
    counts: np.ndarray  # (k,)
    sums: np.ndarray  # (k, 26)


def _cell_factors(obs: Observations) -> _Cells:
    """``obs`` reduced cell by cell to at most 27 rows per G/C/D cell.

    The rows are grouped by cell once, in a stable order. Each present
    cell's rows are replaced by the min(n_c, 27) rows of the R of one QR of
    its ``[e, y]``; every design column is ``e[:, j]`` times a function of
    the cell, so ``_cross`` on any subset of cells and terms gives a stack
    whose ``[design, y]`` has the Gram matrix of the same design built from
    the raw rows of those cells (the tall-skinny QR reduction). A cell's
    row count and column sums give the feature means of any set of cells.
    """
    cell = obs.labels @ np.array([4, 2, 1])
    counts = np.bincount(cell, minlength=len(ALL_CELLS))
    codes = np.flatnonzero(counts)
    ends = np.cumsum(counts)
    order = np.argsort(cell, kind="stable")
    r, sums = [], np.empty((len(codes), N_FEATURES))
    for k, total in zip(codes, sums):
        rows = order[ends[k] - counts[k]:ends[k]]
        block = np.column_stack([obs.e[rows], obs.y[rows]])
        r.append(np.linalg.qr(block, mode="r"))
        block[:, :N_FEATURES].sum(axis=0, out=total)
    stack = np.vstack([*r, np.empty((0, N_FEATURES + 1))])
    cell_ind = _indicators(_CELL_LABELS[codes])
    return _Cells(stack[:, :N_FEATURES], np.repeat(cell_ind, [len(b) for b in r], axis=0),
                  stack[:, N_FEATURES], codes, cell_ind, counts[codes], sums)


def fit_interactions(obs: Observations) -> RegressionFit:
    """The interaction regression of ``obs`` over all ``N_COLUMNS`` columns:
    ``fit_ols(build_design_matrix(obs), obs.y)`` up to round-off, fitted on
    the per-cell R factors so that the (n, 208) design is never built."""
    cells = _cell_factors(obs)
    return fit_ols(_cross(cells.e, cells.ind), cells.y, n_obs=len(obs))


def significance_band(p: float) -> str:
    """Map a p-value to the banding used in the result tables."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p-value {p} outside [0, 1]")
    if p <= 0.01:
        return "strong"
    if p <= 0.05:
        return "medium"
    if p <= 0.10:
        return "weak"
    return "none"


def three_fold(xbar1: np.ndarray, xbar0: np.ndarray, theta1: np.ndarray,
               theta0: np.ndarray, indicator: str) -> OaxacaDecomposition:
    """Three-fold split given stratum feature means and coefficient sums.

    ``theta*`` arrays hold, per feature, the coefficient sum over the shared
    interaction terms. endowment = sum dX * theta0; coefficient =
    sum xbar1 * dtheta; interaction = sum dX * dtheta; collective is their sum.
    """
    dx = np.asarray(xbar1, dtype=np.float64) - np.asarray(xbar0, dtype=np.float64)
    dtheta = np.asarray(theta1, dtype=np.float64) - np.asarray(theta0, dtype=np.float64)
    endowment = float(dx @ np.asarray(theta0, dtype=np.float64))
    coefficient = float(np.asarray(xbar1, dtype=np.float64) @ dtheta)
    interaction = float(dx @ dtheta)
    collective = endowment + coefficient + interaction
    return OaxacaDecomposition(indicator, endowment, coefficient, interaction, collective)


def _reduced_terms(ind: np.ndarray) -> list[int]:
    """Interaction terms that stay distinct and nonzero on a stratum.

    ``ind`` is the stratum's indicator table. Terms identically zero on it
    vanish; terms whose columns are equal collapse onto the earliest member
    of the canonical order.
    """
    terms: list[int] = []
    for m in range(len(M_LABELS)):
        if ind[:, m].any() and not any(np.array_equal(ind[:, m], ind[:, k]) for k in terms):
            terms.append(m)
    return terms


def _stratum(cells: _Cells, m: int, side: bool) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Feature means and collapsed interaction coefficients of one stratum.

    The stratum is the cells of ``cells`` (``_cell_factors``) where term
    ``m`` of ``M_LABELS`` is ``side``. Returns the (26,) means and the (26,)
    coefficients of each reduced term, keyed by term index in canonical order.
    """
    in_stratum = cells.cell_ind[:, m] == side
    rows = cells.ind[:, m] == side
    n = int(cells.counts[in_stratum].sum())
    terms = _reduced_terms(cells.cell_ind[in_stratum])
    theta = _solve(_cross(cells.e[rows], cells.ind[rows][:, terms]), cells.y[rows], n_obs=n)[0]
    means = cells.sums[in_stratum].sum(axis=0) / n
    return means, dict(zip(terms, theta.reshape(len(terms), N_FEATURES)))


def oaxaca_decompose(obs: Observations, indicator: str,
                     reference: str = "stratum") -> OaxacaDecomposition:
    """Decompose the outcome gap across the two strata of ``indicator``.

    reference="stratum" fits the collapsed interaction model separately on
    the indicator's 1 and 0 strata and uses the 0 stratum as reference.
    reference="zero-error" compares the indicator's 1 stratum against a
    synthetic reference with zero feature error and the same coefficients,
    so the whole gap lands in the endowment component.
    """
    return _decompose(_cell_factors(obs), indicator, reference)


def _decompose(cells: _Cells, indicator: str, reference: str) -> OaxacaDecomposition:
    """``oaxaca_decompose`` of the observations that ``cells`` reduces."""
    if indicator not in M_LABELS:
        raise ValueError(f"unknown indicator {indicator!r}")
    if reference not in ("stratum", "zero-error"):
        raise ValueError(f"unknown reference mode {reference!r}")
    if indicator == "1" and reference == "stratum":
        raise StratificationError("the unit indicator has no 0 stratum; use zero-error")
    m = M_LABELS.index(indicator)
    ones = cells.cell_ind[:, m]
    if not ones.any():
        raise StratificationError(f"indicator {indicator}: stratum I=1 is empty")
    xbar1, coef1 = _stratum(cells, m, True)
    if reference == "zero-error":
        xbar0 = np.zeros(N_FEATURES)
        xbar0[0] = 1.0
        theta_sum1 = sum(coef1.values())
        return three_fold(xbar1, xbar0, theta_sum1, theta_sum1, indicator)

    if ones.all():
        raise StratificationError(f"indicator {indicator}: stratum I=0 is empty")
    xbar0, coef0 = _stratum(cells, m, False)
    shared = [k for k in coef1 if k in coef0]
    theta_sum1 = sum(coef1[k] for k in shared)
    theta_sum0 = sum(coef0[k] for k in shared)
    return three_fold(xbar1, xbar0, theta_sum1, theta_sum0, indicator)


def decomposition_table(obs: Observations,
                        reference: str = "stratum") -> list[OaxacaDecomposition]:
    """One decomposition per interaction term, in canonical order.

    The unit term always uses the zero-error reference (a stratum reference
    does not exist for it); the remaining terms use ``reference``.
    """
    cells = _cell_factors(obs)
    for code, cell in enumerate(ALL_CELLS):
        if code not in cells.codes:
            raise StratificationError(
                f"cell (G={cell.g}, C={cell.c}, D={cell.d}) has no observations"
            )
    return [_decompose(cells, m_label, "zero-error" if m_label == "1" else reference)
            for m_label in M_LABELS]
