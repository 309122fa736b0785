"""Interaction regression and three-fold gap decomposition.

The design matrix crosses the 26 feature-error entries with the eight
main-effect/interaction indicators {1, G, C, D, G*C, G*D, C*D, G*C*D}.
Fits are ordinary least squares with rank-revealing column dropping;
decompositions split a between-stratum outcome difference into endowment,
coefficient, and interaction components whose sum is the collective effect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.stats import t as t_dist

from .corpus import ALL_CELLS, ConditionLabel
from .errors import DependencyError, StratificationError, UnderdeterminedError
from .features import N_FEATURES, ErrorVector

# Interaction set in canonical order; each mask names the indicators whose
# product forms the term.
M_LABELS = ("1", "G", "C", "D", "G*C", "G*D", "C*D", "G*C*D")
_M_BITS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)

N_COLUMNS = N_FEATURES * len(M_LABELS)

PIVOT_RTOL = 1e-10

OUTCOMES = ("stoi", "pesq")

SIGNIFICANCE_BANDS = ("strong", "medium", "weak", "none")


def m_value(label: ConditionLabel, m_label: str) -> int:
    """Evaluate one interaction indicator on a condition label."""
    bits = _M_BITS[M_LABELS.index(m_label)]
    g, c, d = label.as_tuple()
    if bits[0] and not g:
        return 0
    if bits[1] and not c:
        return 0
    if bits[2] and not d:
        return 0
    return 1


@dataclass(frozen=True)
class ObservationRow:
    error: ErrorVector
    label: ConditionLabel
    y_stoi: float
    y_pesq: float | None = None


@dataclass(frozen=True)
class DesignMatrix:
    values: np.ndarray  # (n, N_COLUMNS)
    column_labels: tuple[tuple[int, str], ...]  # (feature index, m label)


@dataclass(frozen=True)
class RegressionFit:
    theta: np.ndarray
    std_err: np.ndarray  # NaN on dropped columns
    t_stat: np.ndarray
    p_value: np.ndarray
    residual_variance: float
    dof: int
    retained: np.ndarray  # bool per column
    column_labels: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class OaxacaDecomposition:
    indicator: str
    endowment: float
    coefficient: float
    interaction: float
    collective: float


def build_design_matrix(rows: list[ObservationRow]) -> DesignMatrix:
    """Design matrix with column (i, m) holding m(label) * e[i] per row."""
    if not rows:
        raise ValueError("need at least one observation row")
    labels = tuple((i, m) for m in M_LABELS for i in range(N_FEATURES))
    values = np.zeros((len(rows), N_COLUMNS))
    for r_idx, row in enumerate(rows):
        e = row.error.e
        for m_idx, m_label in enumerate(M_LABELS):
            if m_value(row.label, m_label):
                values[r_idx, m_idx * N_FEATURES:(m_idx + 1) * N_FEATURES] = e
    return DesignMatrix(values, labels)


def _select_columns(a: np.ndarray, tol: float, max_rank: int) -> tuple[list[int], list[int]]:
    """Rank-revealing column selection in index order (Gram-Schmidt with
    reorthogonalization); keeps at most ``max_rank`` columns."""
    n, p = a.shape
    q = np.empty((n, 0))
    retained: list[int] = []
    dropped: list[int] = []
    for j in range(p):
        if len(retained) >= max_rank:
            dropped.append(j)
            continue
        v = a[:, j].astype(np.float64).copy()
        if q.shape[1]:
            v -= q @ (q.T @ v)
            v -= q @ (q.T @ v)
        pivot = float(np.linalg.norm(v))
        if pivot <= tol:
            dropped.append(j)
        else:
            retained.append(j)
            q = np.hstack([q, (v / pivot)[:, None]])
    return retained, dropped


def fit_ols(design: DesignMatrix | np.ndarray, y: np.ndarray,
            column_labels: tuple[tuple[int, str], ...] | None = None) -> RegressionFit:
    """Minimum-residual least squares with deterministic column dropping.

    Columns are scanned in index order; one whose residual against the
    already-retained span falls below 1e-10 of the largest column norm is
    dropped (theta 0, p-value NaN). Retention is also capped at n - 1
    columns so the residual always keeps at least one degree of freedom.
    Standard errors are classical homoskedastic; p-values are two-sided t.
    """
    if isinstance(design, DesignMatrix):
        a = design.values
        labels = design.column_labels
    else:
        a = np.asarray(design, dtype=np.float64)
        labels = column_labels or tuple((j, "1") for j in range(a.shape[1]))
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("outcome vector contains non-finite values")
    n, p = a.shape
    if len(y) != n:
        raise ValueError("outcome length does not match the design")
    if n < 2:
        raise UnderdeterminedError("need at least two observations")

    col_norms = np.linalg.norm(a, axis=0)
    tol = PIVOT_RTOL * (col_norms.max() if p else 0.0)
    retained_idx, _ = _select_columns(a, tol, max_rank=n - 1)
    if not retained_idx:
        raise UnderdeterminedError("no usable design column")
    rank = len(retained_idx)

    xr = a[:, retained_idx]
    q2, r2 = qr(xr, mode="economic")
    theta_r = solve_triangular(r2, q2.T @ y)
    resid = y - xr @ theta_r
    dof = n - rank
    rss = float(resid @ resid)
    sigma2 = rss / dof

    r_inv = solve_triangular(r2, np.eye(rank))
    cov_diag = sigma2 * np.sum(r_inv ** 2, axis=1)
    se_r = np.sqrt(np.maximum(cov_diag, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_r = np.where(se_r > 0.0, theta_r / se_r, np.inf * np.sign(theta_r))
    p_r = 2.0 * t_dist.sf(np.abs(t_r), dof)

    theta = np.zeros(p)
    std_err = np.full(p, np.nan)
    t_stat = np.full(p, np.nan)
    p_value = np.full(p, np.nan)
    retained = np.zeros(p, dtype=bool)
    theta[retained_idx] = theta_r
    std_err[retained_idx] = se_r
    t_stat[retained_idx] = t_r
    p_value[retained_idx] = p_r
    retained[retained_idx] = True
    return RegressionFit(theta, std_err, t_stat, p_value, sigma2, dof, retained, tuple(labels))


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


def outcome_vector(rows: list[ObservationRow], outcome: str) -> np.ndarray:
    """The ``outcome`` values of ``rows``; DependencyError if any pesq is absent."""
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    if outcome == "stoi":
        return np.array([r.y_stoi for r in rows], dtype=np.float64)
    missing = [i for i, r in enumerate(rows) if r.y_pesq is None]
    if missing:
        raise DependencyError(
            f"{len(missing)} row(s) lack an external pesq value (first at index {missing[0]})"
        )
    return np.array([r.y_pesq for r in rows], dtype=np.float64)


def _reduced_m_labels(rows: list[ObservationRow]) -> tuple[str, ...]:
    """Interaction terms that stay distinct and nonzero on these rows.

    Terms identically zero on the stratum vanish; terms that coincide as
    functions of the observed labels collapse onto the earliest member of
    the canonical order.
    """
    distinct = sorted({r.label for r in rows})
    seen: dict[tuple[int, ...], str] = {}
    reps: list[str] = []
    for m_label in M_LABELS:
        pattern = tuple(m_value(lbl, m_label) for lbl in distinct)
        if not any(pattern):
            continue
        if pattern not in seen:
            seen[pattern] = m_label
            reps.append(m_label)
    return tuple(reps)


def _stratum_fit(rows: list[ObservationRow], outcome: str
                 ) -> tuple[dict[tuple[int, str], float], tuple[str, ...]]:
    """Fit the collapsed interaction model on one stratum.

    Returns coefficients keyed by (feature index, reduced m label) plus the
    reduced label set.
    """
    m_labels = _reduced_m_labels(rows)
    labels = tuple((i, m) for m in m_labels for i in range(N_FEATURES))
    values = np.zeros((len(rows), len(labels)))
    for r_idx, row in enumerate(rows):
        e = row.error.e
        for m_idx, m_label in enumerate(m_labels):
            if m_value(row.label, m_label):
                values[r_idx, m_idx * N_FEATURES:(m_idx + 1) * N_FEATURES] = e
    y = outcome_vector(rows, outcome)
    fit = fit_ols(values, y, column_labels=labels)
    coef = {lbl: float(th) for lbl, th in zip(labels, fit.theta)}
    return coef, m_labels


def _feature_means(rows: list[ObservationRow]) -> np.ndarray:
    return np.mean(np.stack([r.error.e for r in rows]), axis=0)


def oaxaca_decompose(rows: list[ObservationRow], indicator: str,
                     outcome: str = "stoi", reference: str = "stratum"
                     ) -> OaxacaDecomposition:
    """Decompose the outcome gap across the two strata of ``indicator``.

    reference="stratum" fits the collapsed interaction model separately on
    the indicator's 1 and 0 strata and uses the 0 stratum as reference.
    reference="zero-error" compares the indicator's 1 stratum against a
    synthetic reference with zero feature error and the same coefficients,
    so the whole gap lands in the endowment component.
    """
    if indicator not in M_LABELS:
        raise ValueError(f"unknown indicator {indicator!r}")
    if reference not in ("stratum", "zero-error"):
        raise ValueError(f"unknown reference mode {reference!r}")
    if indicator == "1" and reference == "stratum":
        raise StratificationError("the unit indicator has no 0 stratum; use zero-error")

    ones = [r for r in rows if m_value(r.label, indicator)]
    zeros = [r for r in rows if not m_value(r.label, indicator)]
    if not ones:
        raise StratificationError(f"indicator {indicator}: stratum I=1 is empty")

    if reference == "zero-error":
        coef1, m_labels = _stratum_fit(ones, outcome)
        xbar1 = _feature_means(ones)
        xbar0 = np.zeros(N_FEATURES)
        xbar0[0] = 1.0
        theta_sum1 = np.array(
            [sum(coef1[(i, m)] for m in m_labels) for i in range(N_FEATURES)]
        )
        return three_fold(xbar1, xbar0, theta_sum1, theta_sum1, indicator)

    if not zeros:
        raise StratificationError(f"indicator {indicator}: stratum I=0 is empty")
    coef1, m1 = _stratum_fit(ones, outcome)
    coef0, m0 = _stratum_fit(zeros, outcome)
    shared = tuple(m for m in m1 if m in m0)
    xbar1 = _feature_means(ones)
    xbar0 = _feature_means(zeros)
    theta_sum1 = np.array([sum(coef1[(i, m)] for m in shared) for i in range(N_FEATURES)])
    theta_sum0 = np.array([sum(coef0[(i, m)] for m in shared) for i in range(N_FEATURES)])
    return three_fold(xbar1, xbar0, theta_sum1, theta_sum0, indicator)


def decomposition_table(rows: list[ObservationRow], outcome: str = "stoi",
                        reference: str = "stratum") -> list[OaxacaDecomposition]:
    """One decomposition per interaction term, in canonical order.

    The unit term always uses the zero-error reference (a stratum reference
    does not exist for it); the remaining terms use ``reference``.
    """
    present = {r.label for r in rows}
    for cell in ALL_CELLS:
        if cell not in present:
            raise StratificationError(
                f"cell (G={cell.g}, C={cell.c}, D={cell.d}) has no observations"
            )
    out = []
    for m_label in M_LABELS:
        mode = "zero-error" if m_label == "1" else reference
        out.append(oaxaca_decompose(rows, m_label, outcome, mode))
    return out
