"""Numeric kernels shared by the metrics and the features.

Batched Levinson-Durbin recursion (LPC for llr and the formant features),
glottal-period peak marking (jitter and shimmer) and the per-band
nearest-local-peak search (weighted spectral slope). Each kernel has one
NumPy implementation.
"""
from __future__ import annotations

import numpy as np

# mark_periods seeks each next peak between these multiples of the period
# away from the last one.
PERIOD_LO_FRAC = 0.7
PERIOD_HI_FRAC = 1.4


def backend_name() -> str:
    return "numpy"


def levinson_batch(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the autocorrelation normal equations per row of ``r``.

    Returns monic coefficient rows ``a`` (a[:, 0] == 1) and the final
    prediction-error energy per row. Rows whose prediction error collapses
    to <= 0 keep the coefficients found so far and report zero error.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < 2:
        raise ValueError("need a (frames, order+1) autocorrelation array")
    m, p1 = r.shape
    a = np.zeros((m, p1))
    a[:, 0] = 1.0
    e = r[:, 0].copy()
    alive = e > 0.0
    for k in range(1, p1):
        acc = r[:, k].copy()
        if k > 1:
            acc += np.einsum("mj,mj->m", a[:, 1:k], r[:, k - 1:0:-1])
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(alive, -acc / np.where(e > 0.0, e, 1.0), 0.0)
        a[:, 1:k] = a[:, 1:k] + lam[:, None] * a[:, k - 1:0:-1]
        a[:, k] = lam
        e = e * (1.0 - lam * lam)
        alive = alive & (e > 0.0)
    return a, np.maximum(e, 0.0)


def mark_periods(x: np.ndarray, start: int, period: float) -> np.ndarray:
    """Mark successive waveform peaks roughly one ``period`` apart.

    Scans backward and forward from the anchor peak at ``start``; each next
    peak is the maximum sample (the first on ties) in the window
    ``[PERIOD_LO_FRAC, PERIOD_HI_FRAC] * period`` away from the previous
    one. Returns sorted integer peak positions including ``start``.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not 0 <= start < n:
        raise ValueError("anchor peak outside the signal")
    near, far = int(period * PERIOD_LO_FRAC), int(period * PERIOD_HI_FRAC)
    cap = int(n / max(period * PERIOD_LO_FRAC, 1.0)) + 2
    fwd: list[int] = []
    pos = start
    while len(fwd) < cap and pos + far < n:
        lo = max(pos + near, pos + 1)
        pos = lo + int(np.argmax(x[lo:pos + far + 1]))
        fwd.append(pos)
    bwd: list[int] = []
    pos = start
    while len(bwd) < cap and pos - far >= 0:
        lo = pos - far
        pos = lo + int(np.argmax(x[lo:min(pos - near, pos - 1) + 1]))
        bwd.append(pos)
    return np.array(bwd[::-1] + [start] + fwd, dtype=np.int64)


def local_peak_values(bands_db: np.ndarray) -> np.ndarray:
    """Per frame and band, the dB value of the nearest uphill local maximum.

    Band ``k`` climbs rightward while the next band is strictly higher when
    band ``k + 1`` is higher than band ``k``, and leftward while the previous
    band is at least as high otherwise. Returns ``(frames, bands - 1)``.
    """
    b = np.asarray(bands_db, dtype=np.float64)
    n_frames, nb = b.shape
    idx = np.arange(nb)
    edge = np.ones((n_frames, 1), dtype=bool)
    rising = b[:, 1:] > b[:, :-1]
    # rightward climb ends at the first index >= k not followed by a strict rise
    ends = np.where(np.hstack([~rising, edge]), idx, nb - 1)
    right = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    # leftward climb ends at the last index <= k whose left neighbour is lower
    starts = np.where(np.hstack([edge, ~(b[:, :-1] >= b[:, 1:])]), idx, 0)
    left = np.maximum.accumulate(starts, axis=1)
    top = np.where(rising, right[:, :-1], left[:, :-1])
    return np.take_along_axis(b, top, axis=1)
