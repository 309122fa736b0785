"""Per-utterance acoustic descriptors and clean/degraded feature errors.

Twenty-five descriptors plus a constant intercept are extracted from 25 ms /
10 ms frames and aggregated to utterance means; voicing-dependent entries
(indices 11-25) average over voiced frames only and default to 0 when the
utterance is fully unvoiced.

The extraction runs in two steps: ``frame_terms`` takes each frame's terms,
and ``utterance_means`` averages those of a signal's own frames. A frame's
terms do not depend on the frames after it, so the terms of one signal
serve every prefix of it: the features stage analyses each clean reference
once per crop start and takes each crop's means from the shared terms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp, kernels
from .corpus import AudioSignal
from .errors import PreconditionError

N_FEATURES = 26

FEATURE_NAMES = (
    "intercept",
    "loudness",
    "alpha_ratio",
    "hammarberg_index",
    "slope_0_500",
    "slope_500_1500",
    "spectral_flux",
    "mfcc1",
    "mfcc2",
    "mfcc3",
    "mfcc4",
    "f0_semitone",
    "jitter_local",
    "shimmer_db",
    "hnr_db",
    "h1_h2",
    "h1_a3",
    "f1_frequency",
    "f1_bandwidth",
    "f1_rel_amplitude",
    "f2_frequency",
    "f2_bandwidth",
    "f2_rel_amplitude",
    "f3_frequency",
    "f3_bandwidth",
    "f3_rel_amplitude",
)

MIN_DURATION_SECONDS = 0.100
PITCH_FMIN = 55.0
PITCH_FMAX = 1000.0
PITCH_FRAME_SECONDS = 0.040
N_AUDITORY_BANDS = 26
FORMANT_LPC_ORDER = 12
FORMANT_MAX_BANDWIDTH = 700.0
PREEMPHASIS = 0.97
SEMITONE_REF_HZ = 27.5

_TINY = 1e-30

# Orthonormal DCT-II basis columns 1-4 over the auditory bands: log-mel
# frames times this give mel cepstra 1-4.
_MFCC_BASIS = np.sqrt(2.0 / N_AUDITORY_BANDS) * np.cos(
    np.pi * np.outer(2 * np.arange(N_AUDITORY_BANDS) + 1, np.arange(1, 5)) / (2 * N_AUDITORY_BANDS)
)


@dataclass(frozen=True)
class FeatureVector:
    """26 descriptor values; x[0] is the constant intercept 1."""

    x: np.ndarray
    voiced: bool = True

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} feature values")
        if x[0] != 1.0:
            raise ValueError("feature index 0 must be the constant 1")
        if not np.all(np.isfinite(x)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class ErrorVector:
    """Elementwise absolute feature differences; e[0] stays 1."""

    e: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e, dtype=np.float64)
        if e.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} error values")
        if e[0] != 1.0:
            raise ValueError("error index 0 must be the constant 1")
        if (e < 0).any() or not np.isfinite(e).all():
            raise ValueError("error values must be finite and non-negative")
        object.__setattr__(self, "e", e)


def feature_error(clean_fv: FeatureVector, degraded_fv: FeatureVector) -> ErrorVector:
    e = np.abs(clean_fv.x - degraded_fv.x)
    e[0] = 1.0
    return ErrorVector(e)


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    if not np.any(mask):
        return 0.0
    return float(np.mean(values[mask]))


def _row_products(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights``, taken dsp.BLOCK_FRAMES rows at a time through one
    zero-padded buffer. BLAS rounds a row's product differently with the
    number of rows beside it; a product of one shape gives each frame the
    same bits in a signal and in any prefix of it."""
    out = np.empty((len(rows),) + weights.shape[1:])
    buf = np.zeros((dsp.BLOCK_FRAMES, rows.shape[1]))
    for block in dsp.row_blocks(len(rows)):
        part = rows[block]
        buf[:len(part)] = part
        buf[len(part):] = 0.0
        out[block] = (buf @ weights)[:len(part)]
    return out


def _band_peaks(mags: np.ndarray, freqs: np.ndarray, lo, hi) -> np.ndarray:
    """Largest magnitude with frequency in [lo, hi] Hz per row of ``mags``.

    The bounds broadcast against the rows; a band that holds no bin, or has
    a NaN bound, gives 0.0.
    """
    sel = (freqs >= np.expand_dims(lo, -1)) & (freqs <= np.expand_dims(hi, -1))
    mags = np.broadcast_to(mags, np.broadcast_shapes(mags.shape, sel.shape))
    return np.max(mags, axis=-1, where=sel, initial=0.0)


def _spectral_slopes(mags: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares slope of the dB spectrum over [lo, hi] Hz per frame."""
    sel = (freqs >= lo) & (freqs <= hi)
    f = freqs[sel]
    sub = mags[:, sel]
    row_max = sub.max(axis=1)
    valid = row_max > 0.0
    floor = np.maximum(row_max * 1e-8, _TINY)[:, None]
    db = 20.0 * np.log10(np.maximum(sub, floor))
    fc = f - f.mean()
    denom = np.sum(fc ** 2)
    slopes = _row_products(db, fc) / denom
    return slopes, valid


def _formants(a: np.ndarray, rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and bandwidth in Hz of the three lowest formants per LPC row.

    The roots of each row are the eigenvalues of its companion matrix, as
    in ``np.roots``, except that trailing zero coefficients (a Levinson row
    whose error collapsed) are kept and add roots at 0, which never pass the
    bandwidth limit. Roots in the upper half plane that pass the frequency
    and bandwidth limits are sorted by (frequency, bandwidth); a row with
    fewer than three of them is NaN.
    """
    n_rows, order = a.shape[0], a.shape[1] - 1
    companion = np.zeros((n_rows, order, order))
    companion[:, 0, :] = -a[:, 1:]
    companion[:, np.arange(1, order), np.arange(order - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    freq = np.angle(roots) * rate / (2.0 * np.pi)
    bw = -(rate / np.pi) * np.log(np.maximum(np.abs(roots), _TINY))
    keep = ((np.imag(roots) > 0.0) & (freq > 90.0) & (freq < rate / 2.0 - 90.0)
            & (bw > 0.0) & (bw < FORMANT_MAX_BANDWIDTH))
    freq = np.where(keep, freq, np.inf)
    lowest = np.lexsort((bw, freq), axis=-1)[:, :3]
    missing = (np.sum(keep, axis=1) < 3)[:, None]
    return (np.where(missing, np.nan, np.take_along_axis(freq, lowest, axis=1)),
            np.where(missing, np.nan, np.take_along_axis(bw, lowest, axis=1)))


def _jitter_shimmer(x: np.ndarray, rate: int, f0_hz: float) -> tuple[float, float]:
    """Period-to-period jitter and dB shimmer from marked waveform peaks."""
    period = rate / f0_hz
    if len(x) < 3 * period:
        return 0.0, 0.0
    sig = x if np.max(x) >= np.max(-x) else -x
    anchor = int(np.argmax(sig))
    peaks = kernels.mark_periods(sig, anchor, period)
    interior = peaks[(peaks > 0) & (peaks < len(sig) - 1)]
    if len(interior) < 3:
        return 0.0, 0.0
    delta, amps = dsp.parabolic_peak(sig[interior - 1], sig[interior], sig[interior + 1])
    positions = interior + delta

    periods = np.diff(positions)
    ok = (periods > 0.5 * period) & (periods < 2.0 * period)
    periods = periods[ok]
    jitter = 0.0
    if len(periods) >= 2:
        jitter = float(np.mean(np.abs(np.diff(periods))) / np.mean(periods))

    both = (amps[1:] > 0.0) & (amps[:-1] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shimmer = _masked_mean(np.abs(20.0 * np.log10(amps[1:] / amps[:-1])), both)
    return jitter, shimmer


@dataclass(frozen=True)
class FrameTerms:
    """The per-frame terms of one signal that its utterance means read; no spectra.

    Row i of ``f0``, ``acf_peak``, ``values`` and ``valid`` depends on the
    signal's analysis frame i alone (the flux on frames i - 1 and i), and
    ``voiced`` holds one row per voiced frame in frame order, so the first
    rows of a signal's terms are also those of any prefix of it.
    """

    f0: np.ndarray  # (n_frames,) pitch in Hz, NaN where unvoiced
    acf_peak: np.ndarray  # (n_frames,) normalized autocorrelation peak
    values: np.ndarray  # (n_frames, 10) per-frame values of features 1-10
    valid: np.ndarray  # (n_frames, 10) the frames each of those means takes
    voiced: np.ndarray  # (n_voiced, 11) H1, H2, the formant harmonics' peaks, F1-F3, their bandwidths


def _check_duration(sig: AudioSignal) -> None:
    if sig.duration < MIN_DURATION_SECONDS:
        raise PreconditionError(
            f"utterance must last at least {MIN_DURATION_SECONDS * 1000:.0f} ms"
        )


def _pitch_frames(sig: AudioSignal) -> tuple[np.ndarray, int, int]:
    """The pitch frames of ``sig``, their hop and their length."""
    _, hop = dsp.default_frame_params(sig.rate)
    pitch_len = int(round(PITCH_FRAME_SECONDS * sig.rate))
    return dsp.frame(sig, pitch_len, hop), hop, pitch_len


def extract_features(sig: AudioSignal) -> FeatureVector:
    """Extract the 26-entry descriptor vector for one utterance."""
    return utterance_means(frame_terms(sig), sig)


def frame_terms(sig: AudioSignal) -> FrameTerms:
    """The per-frame terms of one utterance (see FrameTerms)."""
    _check_duration(sig)
    rate = sig.rate
    # the pitch track first, so that its blocks' transients are not alive
    # together with the full-size power and magnitudes
    pitch_frames, _, _ = _pitch_frames(sig)
    f0_track, acf_peak = dsp.acf_pitch_track(pitch_frames, rate, PITCH_FMIN, PITCH_FMAX)

    analysis = dsp.frame_analysis(sig)
    n = len(pitch_frames)  # the longer pitch frames, on the same hop, are never more numerous
    frames, power, active = analysis.frames[:n], analysis.power[:n], analysis.energy[:n] > 0.0
    freqs = np.arange(power.shape[1]) * (rate / analysis.fft_len)
    # column j holds the terms of feature j + 1; a value outside ``valid`` stays 0
    values = np.zeros((n, 10))
    valid = np.ones((n, 10), dtype=bool)

    # loudness: compressed auditory band powers summed per frame
    mel_bank = dsp.make_filterbank("mel", rate, analysis.fft_len, N_AUDITORY_BANDS, 50.0)
    band_power = _row_products(power, mel_bank.T)
    values[:, 0] = np.sum(band_power ** 0.3, axis=1)

    # alpha ratio: 50-1000 Hz vs 1-5 kHz energy in dB
    low = (freqs >= 50.0) & (freqs <= 1000.0)
    high = (freqs > 1000.0) & (freqs <= 5000.0)
    e_low = power[:, low].sum(axis=1)
    e_high = power[:, high].sum(axis=1)
    valid[:, 1] = both = (e_low > 0.0) & (e_high > 0.0)
    values[both, 1] = 10.0 * np.log10(e_low[both] / e_high[both])

    # the magnitudes take the power's place: nothing below reads the power
    mags = np.sqrt(power, out=power)

    # hammarberg index: strongest peak 0-2 kHz vs 2-5 kHz in dB
    p_lo = _band_peaks(mags, freqs, 0.0, 2000.0)
    p_hi = _band_peaks(mags, freqs, 2000.0, 5000.0)
    valid[:, 2] = both = (p_lo > 0.0) & (p_hi > 0.0)
    values[both, 2] = 20.0 * np.log10(p_lo[both] / p_hi[both])

    # spectral slopes of the dB spectrum
    for j, (lo, hi) in ((3, (0.0, 500.0)), (4, (500.0, 1500.0))):
        values[:, j], slope_valid = _spectral_slopes(mags, freqs, lo, hi)
        valid[:, j] = slope_valid & active

    # spectral flux: the mean squared magnitude step from the frame before,
    # in blocks so that no (frames, bins) difference is held
    valid[0, 5] = False
    for first in range(1, n, dsp.BLOCK_FRAMES):
        stop = min(first + dsp.BLOCK_FRAMES, n)
        values[first:stop, 5] = np.mean((mags[first:stop] - mags[first - 1:stop - 1]) ** 2, axis=1)

    # mel cepstra 1..4
    log_mel = np.log(band_power + np.maximum(band_power.max(axis=1, keepdims=True) * 1e-10, _TINY))
    values[:, 6:10] = _row_products(log_mel, _MFCC_BASIS)
    valid[:, 6:10] = active[:, None]

    # the harmonic and formant terms of the voiced frames, dsp.BLOCK_FRAMES
    # voiced rows at a time
    rows = np.flatnonzero(np.isfinite(f0_track))
    voiced = np.empty((len(rows), 11))
    for block in dsp.row_blocks(len(rows)):
        voiced[block, :5], voiced[block, 5:8], voiced[block, 8:] = _voiced_frame_terms(
            frames, mags, freqs, f0_track, rows[block], rate)
    return FrameTerms(f0_track, acf_peak, values, valid, voiced)


def utterance_means(terms: FrameTerms, sig: AudioSignal) -> FeatureVector:
    """The 26-entry descriptor vector of ``sig`` from ``terms``, the frame
    terms of ``sig`` or of a longer signal of its rate that begins with its
    samples: the means take the rows of ``sig``'s own frames."""
    _check_duration(sig)
    pitch_frames, hop, pitch_len = _pitch_frames(sig)
    k = len(pitch_frames)
    if len(terms.f0) < k:
        raise ValueError(f"the frame terms hold {len(terms.f0)} frames, the signal {k}")
    f0_track = terms.f0[:k]
    voiced = np.isfinite(f0_track)

    x = np.zeros(N_FEATURES)
    x[0] = 1.0
    for j in range(10):
        x[1 + j] = _masked_mean(terms.values[:k, j], terms.valid[:k, j])

    if np.any(voiced):
        f0v = f0_track[voiced]
        x[11] = float(np.mean(12.0 * np.log2(f0v / SEMITONE_REF_HZ)))

        r = np.clip(terms.acf_peak[:k][voiced], _TINY, 1.0 - 1e-7)
        x[14] = float(np.mean(10.0 * np.log10(r / (1.0 - r))))

        x[12], x[13] = _voiced_run_jitter_shimmer(sig, voiced, f0_track, hop, pitch_len)
        x[15], x[16], x[17:26] = _harmonic_and_formant_means(terms.voiced[:np.count_nonzero(voiced)])

    return FeatureVector(x, voiced=bool(np.any(voiced)))


def _voiced_run_jitter_shimmer(sig: AudioSignal, voiced: np.ndarray,
                               f0_track: np.ndarray, hop: int, pitch_len: int
                               ) -> tuple[float, float]:
    """Jitter/shimmer over the longest contiguous voiced stretch (the first
    of equal ones); ``voiced`` has at least one frame set."""
    edges = np.diff(np.concatenate([[0], voiced.astype(np.int8), [0]]))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    longest = int(np.argmax(stops - starts))
    best_start, best_len = int(starts[longest]), int(stops[longest] - starts[longest])
    if best_len < 2:
        return 0.0, 0.0
    start = best_start * hop
    stop = min((best_start + best_len - 1) * hop + pitch_len, len(sig.samples))
    segment = sig.samples[start:stop]
    f0_med = _median(f0_track[best_start:best_start + best_len])
    return _jitter_shimmer(segment, sig.rate, f0_med)


def _median(values: np.ndarray) -> float:
    """The median of a non-empty 1-D array without NaN, the same bits as
    np.median's: the middle value, or the mean of the middle two. np.median
    imports numpy.ma the first time it runs, about 16 ms of a process."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2.0)


def _harmonic_and_formant_means(voiced: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Means over the rows of ``voiced`` (see FrameTerms) of H1-H2, H1-A3
    and the formant frequency/bandwidth/level; the formant terms average
    over the frames with three formants."""
    h1, h2, amps = voiced[:, 0], voiced[:, 1], voiced[:, 2:5]
    f_hz, bw_hz = voiced[:, 5:8], voiced[:, 8:]
    has_formants = ~np.isnan(f_hz[:, 0])
    a3 = amps[:, 2]

    with np.errstate(divide="ignore", invalid="ignore"):
        h1h2 = _masked_mean(20.0 * np.log10(h1 / h2), (h1 > 0.0) & (h2 > 0.0))
        h1a3 = _masked_mean(20.0 * np.log10(h1 / a3), has_formants & (h1 > 0.0) & (a3 > 0.0))
        level = np.where((amps > 0.0) & (h1[:, None] > 0.0),
                         20.0 * np.log10(amps / h1[:, None]), 0.0)
    stats = np.stack([f_hz, bw_hz, level], axis=-1).reshape(len(f_hz), 9)[has_formants]
    return h1h2, h1a3, np.mean(stats, axis=0) if len(stats) else np.zeros(9)


def _voiced_frame_terms(frames: np.ndarray, mags: np.ndarray, freqs: np.ndarray,
                        f0_track: np.ndarray, rows: np.ndarray, rate: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per frame of ``rows``: the harmonic peaks H1, H2 and the harmonic
    nearest each formant, +-half around its target (rows, 5), and the three
    formant frequencies and bandwidths (rows, 3), NaN without three
    formants. Each frame's terms depend on that frame alone."""
    pre = frames[rows]  # a copy, since ``frames`` is a read-only view
    pre[:, 1:] -= PREEMPHASIS * pre[:, :-1]
    w = dsp.get_window(dsp.DEFAULT_WINDOW, frames.shape[1])
    a_rows, lpc_valid = dsp.lpc_batch(pre * w, FORMANT_LPC_ORDER)
    f_hz = np.full((len(a_rows), 3), np.nan)
    bw_hz = f_hz.copy()
    f_hz[lpc_valid], bw_hz[lpc_valid] = _formants(a_rows[lpc_valid], rate)

    f0 = f0_track[rows][:, None]
    half = np.maximum(0.25 * f0, 2.0 * freqs[1])
    targets = np.hstack([f0, 2.0 * f0, np.maximum(1.0, np.rint(f_hz / f0)) * f0])
    return _band_peaks(mags[rows][:, None, :], freqs, targets - half, targets + half), f_hz, bw_hz
