"""Shared signal-processing primitives: framing, spectra, LPC, filterbanks, pitch.

Defaults follow common speech-analysis practice: 25 ms frames, 10 ms hop,
Hamming window. The FFT length is the next power of two >= frame length +
LLR_ORDER + 1, so that the power spectra also give the frames'
autocorrelation up to lag LLR_ORDER without circular wrap.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import kernels
from .corpus import AudioSignal
from .errors import ConfigurationError

DEFAULT_FRAME_SECONDS = 0.025
DEFAULT_HOP_SECONDS = 0.010

# Normalized-autocorrelation peak below this is treated as unvoiced.
VOICING_THRESHOLD = 0.45
# LPC order of the log-likelihood ratio metric, which reads its
# autocorrelation from the frame analysis's power spectra.
LLR_ORDER = 10
# The per-frame work of frame_analysis, acf_pitch_track, the voiced-frame
# features and the frame metrics runs over this many rows (frames or
# segments) at a time, so its temporaries stay a fixed size however long
# the signal is.
BLOCK_FRAMES = 128


class FrameAnalysis(NamedTuple):
    """One signal's default short-time analysis, shared by the frame metrics and the features."""

    frames: np.ndarray  # (n_frames, frame_len) raw samples, a read-only view of the signal
    energy: np.ndarray  # (n_frames,) sum of each frame's squared samples
    power: np.ndarray  # (n_frames, fft_len // 2 + 1) |rfft| ** 2 of the Hamming-windowed frames
    fft_len: int


def row_blocks(n: int) -> list[slice]:
    """Slices of BLOCK_FRAMES consecutive rows, in order, that cover rows 0 .. n - 1."""
    return [slice(first, first + BLOCK_FRAMES) for first in range(0, n, BLOCK_FRAMES)]


def next_pow2(n: int) -> int:
    return 1 << max(int(n) - 1, 0).bit_length()


def default_frame_params(rate: int) -> tuple[int, int]:
    return int(round(DEFAULT_FRAME_SECONDS * rate)), int(round(DEFAULT_HOP_SECONDS * rate))


def frame(sig: AudioSignal, frame_len: int, hop: int) -> np.ndarray:
    """Split a signal into overlapping ``(n_frames, frame_len)`` frames; no
    trailing zero-padding. The frames are a read-only view that shares
    memory with ``sig.samples``."""
    if hop <= 0 or hop > frame_len:
        raise ValueError("need 0 < hop <= frame_len")
    x = sig.samples
    if len(x) < frame_len:
        return np.zeros((0, frame_len))
    n = (len(x) - frame_len) // hop + 1
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop][:n]


def frame_analysis(sig: AudioSignal) -> FrameAnalysis:
    """Default frames of a signal and their power spectra (see frame_analyses)."""
    (analysis,) = frame_analyses(sig)
    return analysis


def frame_analyses(*signals: AudioSignal, visit=None) -> tuple[FrameAnalysis, ...]:
    """The frame analyses of signals of one rate and length, built in one pass
    of blocks: default frames and their power spectra, zero-padded to a
    power-of-two rfft of at least frame_len + LLR_ORDER + 1 points, whose
    power_autocorrelation is exact to lag LLR_ORDER; a signal shorter than
    one frame gives zero rows. The frames are windowed and transformed
    BLOCK_FRAMES rows at a time, so no complex spectrum of a whole signal
    is held. visit(block, energies, spectra), if given, is called after
    each block with its slice of rows and, per signal, their energies and
    complex spectra."""
    frame_len, hop = default_frame_params(signals[0].rate)
    fft_len = next_pow2(frame_len + LLR_ORDER + 1)
    window = np.hamming(frame_len)
    frames = [frame(sig, frame_len, hop) for sig in signals]
    energy = [np.empty(len(f)) for f in frames]
    power = [np.empty((len(f), fft_len // 2 + 1)) for f in frames]
    for block in row_blocks(len(frames[0])):
        spectra = [np.fft.rfft(f[block] * window, fft_len, axis=1) for f in frames]
        for f, e, p, spec in zip(frames, energy, power, spectra):
            e[block] = np.sum(f[block] ** 2, axis=1)
            p[block] = np.abs(spec) ** 2
        if visit is not None:
            visit(block, [e[block] for e in energy], spectra)
    return tuple(FrameAnalysis(f, e, p, fft_len) for f, e, p in zip(frames, energy, power))


def power_autocorrelation(power: np.ndarray, fft_len: int, max_lag: int) -> np.ndarray:
    """r[0..max_lag] of each row whose |rfft| ** 2 at fft_len points is a row
    of ``power``, exact for rows of up to fft_len - max_lag - 1 samples. The
    inverse FFTs run BLOCK_FRAMES rows at a time; each row's result depends
    on that row alone."""
    r = np.empty((len(power), max_lag + 1))
    for block in row_blocks(len(r)):
        r[block] = np.fft.irfft(power[block], fft_len, axis=1)[:, :max_lag + 1]
    return r


def autocorrelate(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r[0..max_lag] per frame row: power_autocorrelation
    of the rows' |rfft| ** 2, zero-padded so that no lag wraps."""
    frames = np.asarray(frames, dtype=np.float64)
    fft_len = next_pow2(frames.shape[1] + max_lag + 1)
    power = np.abs(np.fft.rfft(frames, fft_len, axis=1)) ** 2
    return power_autocorrelation(power, fft_len, max_lag)


def lpc(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin LPC rows (a[:, 0] == 1) of autocorrelation rows
    r[0..order], each from its own row, and the mask of rows with energy,
    r[0] > 0; a row without energy gets the identity filter."""
    valid = r[:, 0] > 0.0
    a, _ = kernels.levinson_batch(np.where(valid[:, None], r, np.eye(1, r.shape[1]).ravel()))
    return a, valid


def parabolic_peak(y0: np.ndarray, y1: np.ndarray, y2: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Offset in [-0.5, 0.5] from the middle sample, and height, of the
    vertex of the parabola through (-1, y0), (0, y1), (1, y2); offset 0 and
    height y1 where the samples are collinear."""
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where(np.abs(denom) > 1e-30, 0.5 * (y0 - y2) / denom, 0.0)
    offset = np.clip(offset, -0.5, 0.5)
    return offset, y1 - 0.25 * (y0 - y2) * offset


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _hz_to_bark(f):
    return 26.81 * np.asarray(f) / (1960.0 + np.asarray(f)) - 0.53


def _bark_to_hz(z):
    z = np.asarray(z)
    return 1960.0 * (z + 0.53) / (26.28 - z)


def _triangular_weights(edges_hz: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    n_bands = len(edges_hz) - 2
    weights = np.zeros((n_bands, len(freqs)))
    for b in range(n_bands):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (freqs >= lo) & (freqs < mid)
        falling = (freqs >= mid) & (freqs <= hi)
        if mid > lo:
            weights[b, rising] = (freqs[rising] - lo) / (mid - lo)
        if hi > mid:
            weights[b, falling] = (hi - freqs[falling]) / (hi - mid)
    return weights


@lru_cache(maxsize=64)
def make_filterbank(kind: str, rate: int, fft_len: int, n_bands: int,
                    fmin: float) -> np.ndarray:
    """The read-only ``(n_bands, fft_len // 2 + 1)`` non-negative weights of a
    spectral filterbank over rfft bins, one row per band in rising frequency.

    third_octave: rectangular 1/3-octave bands centered at fmin * 2^(k/3).
    critical_band / mel: triangular overlapping bands spaced on the Bark and
    mel scales respectively, spanning fmin up to just below Nyquist.
    """
    if fmin <= 0:
        raise ConfigurationError("fmin must be positive")
    if n_bands < 1:
        raise ConfigurationError("need at least one band")
    nyquist = rate / 2.0
    freqs = np.arange(fft_len // 2 + 1) * (rate / fft_len)

    if kind == "third_octave":
        centers = fmin * 2.0 ** (np.arange(n_bands) / 3.0)
        los = centers * 2.0 ** (-1.0 / 6.0)
        his = centers * 2.0 ** (1.0 / 6.0)
        if his[-1] >= nyquist:
            raise ConfigurationError(
                f"top band edge {his[-1]:.1f} Hz reaches Nyquist {nyquist:.1f} Hz"
            )
        weights = ((freqs[None, :] >= los[:, None]) & (freqs[None, :] < his[:, None])).astype(float)
    elif kind in ("critical_band", "mel"):
        fmax = nyquist - rate / fft_len
        if fmin >= fmax:
            raise ConfigurationError("fmin leaves no room below Nyquist")
        if kind == "mel":
            edges = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_bands + 2))
        else:
            edges = _bark_to_hz(np.linspace(_hz_to_bark(fmin), _hz_to_bark(fmax), n_bands + 2))
        if edges[-1] >= nyquist:
            raise ConfigurationError("band edge reaches Nyquist")
        weights = _triangular_weights(edges, freqs)
    else:
        raise ConfigurationError(f"unknown filterbank kind {kind!r}")

    empty = ~np.any(weights > 0.0, axis=1)
    if np.any(empty):
        raise ConfigurationError(
            f"band(s) {np.flatnonzero(empty).tolist()} cover no FFT bin; "
            "increase fft_len or adjust the band layout"
        )
    weights.flags.writeable = False
    return weights


def _acf_pitch_block(frames: np.ndarray, rate: int, lag_lo: int, lag_hi: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """acf_pitch_track's (f0, peak) of one block of frame rows."""
    n = frames.shape[1]
    centered = frames - frames.mean(axis=1, keepdims=True)
    acf = autocorrelate(centered, lag_hi + 1)
    r0 = acf[:, 0]
    window = acf[:, lag_lo:lag_hi + 1]
    peak_idx = np.argmax(window, axis=1) + lag_lo

    rows = np.arange(len(frames))
    delta, peak_val = parabolic_peak(acf[rows, peak_idx - 1], acf[rows, peak_idx],
                                     acf[rows, peak_idx + 1])
    lag = peak_idx + delta

    # undo the linear taper of the biased autocorrelation estimate
    bias = np.maximum(1.0 - lag / n, 1.0 / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm_peak = np.where(r0 > 0.0, peak_val / r0 / bias, 0.0)
    norm_peak = np.clip(norm_peak, 0.0, 1.0)
    voiced = (r0 > 0.0) & (norm_peak >= VOICING_THRESHOLD)
    f0 = np.where(voiced, rate / lag, np.nan)
    return f0, norm_peak


def acf_pitch_track(frames: np.ndarray, rate: int, fmin: float, fmax: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation F0 and normalized peak per frame row.

    Returns (f0, peak): f0 is NaN where the frame is unvoiced (normalized
    peak below VOICING_THRESHOLD) or silent. The peak lag is refined by
    parabolic interpolation. The rows are taken BLOCK_FRAMES at a
    time; each row's result depends on that row alone, so the blocks do
    not change it.
    """
    if not 0 < fmin < fmax <= rate / 2:
        raise ValueError("need 0 < fmin < fmax <= rate/2")
    n = frames.shape[1]
    lag_lo = max(int(rate / fmax), 2)
    lag_hi = min(int(round(rate / fmin)), n - 2)
    if lag_hi <= lag_lo:
        raise ValueError("frame too short for the requested pitch range")
    f0 = np.empty(len(frames))
    peak = np.empty(len(frames))
    for block in row_blocks(len(frames)):
        f0[block], peak[block] = _acf_pitch_block(frames[block], rate, lag_lo, lag_hi)
    return f0, peak
