"""Per-utterance acoustic descriptors and clean/degraded feature errors.

Twenty-five descriptors plus a constant intercept are extracted from 25 ms /
10 ms frames and aggregated to utterance means; voicing-dependent entries
(indices 11-25) average over voiced frames only and default to 0 when the
utterance is fully unvoiced.
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


def _band_peak(mags_row: np.ndarray, freqs: np.ndarray, lo: float, hi: float) -> float:
    sel = (freqs >= lo) & (freqs <= hi)
    if not np.any(sel):
        return 0.0
    return float(np.max(mags_row[sel]))


def _harmonic_amplitude(mags_row: np.ndarray, freqs: np.ndarray, target_hz: float,
                        half_width_hz: float) -> float:
    return _band_peak(mags_row, freqs, target_hz - half_width_hz, target_hz + half_width_hz)


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
    slopes = (db @ fc) / denom
    return slopes, valid


def _formants_from_lpc(a: np.ndarray, rate: int) -> list[tuple[float, float]]:
    roots = np.roots(a)
    roots = roots[np.imag(roots) > 0.0]
    if len(roots) == 0:
        return []
    freq = np.angle(roots) * rate / (2.0 * np.pi)
    radius = np.abs(roots)
    with np.errstate(divide="ignore"):
        bw = -(rate / np.pi) * np.log(np.maximum(radius, _TINY))
    keep = (freq > 90.0) & (freq < rate / 2.0 - 90.0) & (bw > 0.0) & (bw < FORMANT_MAX_BANDWIDTH)
    pairs = sorted(zip(freq[keep], bw[keep]))
    return [(float(f), float(b)) for f, b in pairs]


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
    y0 = sig[interior - 1]
    y1 = sig[interior]
    y2 = sig[interior + 1]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > _TINY, 0.5 * (y0 - y2) / denom, 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    positions = interior + delta
    amps = y1 - 0.25 * (y0 - y2) * delta

    periods = np.diff(positions)
    ok = (periods > 0.5 * period) & (periods < 2.0 * period)
    periods = periods[ok]
    jitter = 0.0
    if len(periods) >= 2:
        jitter = float(np.mean(np.abs(np.diff(periods))) / np.mean(periods))

    amp_ok = amps > 0.0
    shimmer = 0.0
    ratios = []
    for k in range(len(amps) - 1):
        if amp_ok[k] and amp_ok[k + 1]:
            ratios.append(abs(20.0 * np.log10(amps[k + 1] / amps[k])))
    if ratios:
        shimmer = float(np.mean(ratios))
    return jitter, shimmer


def extract_features(sig: AudioSignal) -> FeatureVector:
    """Extract the 26-entry descriptor vector for one utterance."""
    if sig.duration < MIN_DURATION_SECONDS:
        raise PreconditionError(
            f"utterance must last at least {MIN_DURATION_SECONDS * 1000:.0f} ms"
        )
    rate = sig.rate
    analysis = dsp.frame_analysis(sig)
    frames, power, hop, fft_len = analysis.frames, analysis.power, analysis.hop, analysis.fft_len
    del analysis  # frees the windowed frames and complex spectra, which are not read here
    mags = np.sqrt(power)
    freqs = np.arange(power.shape[1]) * (rate / fft_len)
    frame_energy = np.sum(frames ** 2, axis=1)
    active = frame_energy > 0.0

    pitch_len = int(round(PITCH_FRAME_SECONDS * rate))
    pitch_frames = dsp.frame(sig, pitch_len, hop).frames
    f0_track, acf_peak = dsp.acf_pitch_track(pitch_frames, rate, PITCH_FMIN, PITCH_FMAX)

    n_common = min(len(frames), len(pitch_frames))
    frames = frames[:n_common]
    power = power[:n_common]
    mags = mags[:n_common]
    active = active[:n_common]
    f0_track = f0_track[:n_common]
    acf_peak = acf_peak[:n_common]
    voiced = np.isfinite(f0_track)

    x = np.zeros(N_FEATURES)
    x[0] = 1.0

    # loudness: compressed auditory band powers summed per frame
    mel_bank = dsp.make_filterbank("mel", rate, fft_len, N_AUDITORY_BANDS, 50.0)
    band_power = power @ mel_bank.weights.T
    x[1] = float(np.mean(np.sum(band_power ** 0.3, axis=1)))

    # alpha ratio: 50-1000 Hz vs 1-5 kHz energy in dB
    low = (freqs >= 50.0) & (freqs <= 1000.0)
    high = (freqs > 1000.0) & (freqs <= 5000.0)
    e_low = power[:, low].sum(axis=1)
    e_high = power[:, high].sum(axis=1)
    both = (e_low > 0.0) & (e_high > 0.0)
    ratio_db = np.zeros(len(power))
    ratio_db[both] = 10.0 * np.log10(e_low[both] / e_high[both])
    x[2] = _masked_mean(ratio_db, both)

    # hammarberg index: strongest peak 0-2 kHz vs 2-5 kHz in dB
    p_lo = np.max(mags[:, freqs <= 2000.0], axis=1, initial=0.0)
    p_hi = np.max(mags[:, (freqs >= 2000.0) & (freqs <= 5000.0)], axis=1, initial=0.0)
    both = (p_lo > 0.0) & (p_hi > 0.0)
    hamm = np.zeros(len(mags))
    hamm[both] = 20.0 * np.log10(p_lo[both] / p_hi[both])
    x[3] = _masked_mean(hamm, both)

    # spectral slopes of the dB spectrum
    s1, v1 = _spectral_slopes(mags, freqs, 0.0, 500.0)
    s2, v2 = _spectral_slopes(mags, freqs, 500.0, 1500.0)
    x[4] = _masked_mean(s1, v1 & active)
    x[5] = _masked_mean(s2, v2 & active)

    # spectral flux: mean squared frame-to-frame magnitude difference
    if len(mags) >= 2:
        x[6] = float(np.mean((mags[1:] - mags[:-1]) ** 2))

    # mel cepstra 1..4
    log_mel = np.log(band_power + np.maximum(band_power.max(axis=1, keepdims=True) * 1e-10, _TINY))
    cep = log_mel @ _MFCC_BASIS
    for k in range(4):
        x[7 + k] = _masked_mean(cep[:, k], active)

    if np.any(voiced):
        f0v = f0_track[voiced]
        x[11] = float(np.mean(12.0 * np.log2(f0v / SEMITONE_REF_HZ)))

        r = np.clip(acf_peak[voiced], _TINY, 1.0 - 1e-7)
        x[14] = float(np.mean(10.0 * np.log10(r / (1.0 - r))))

        x[12], x[13] = _voiced_run_jitter_shimmer(sig, voiced, f0_track, hop, pitch_len)

        h1h2, h1a3, formant_stats = _harmonic_and_formant_features(
            frames, mags, freqs, f0_track, voiced, rate
        )
        x[15] = h1h2
        x[16] = h1a3
        x[17:26] = formant_stats

    return FeatureVector(x, voiced=bool(np.any(voiced)))


def _voiced_run_jitter_shimmer(sig: AudioSignal, voiced: np.ndarray,
                               f0_track: np.ndarray, hop: int, pitch_len: int
                               ) -> tuple[float, float]:
    """Jitter/shimmer over the longest contiguous voiced stretch."""
    best_start, best_len = 0, 0
    run_start, run_len = 0, 0
    for i, flag in enumerate(voiced):
        if flag:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_len = 0
    if best_len < 2:
        return 0.0, 0.0
    start = best_start * hop
    stop = min((best_start + best_len - 1) * hop + pitch_len, len(sig.samples))
    segment = sig.samples[start:stop]
    f0_med = float(np.median(f0_track[best_start:best_start + best_len]))
    return _jitter_shimmer(segment, sig.rate, f0_med)


def _harmonic_and_formant_features(frames: np.ndarray, mags: np.ndarray,
                                   freqs: np.ndarray, f0_track: np.ndarray,
                                   voiced: np.ndarray, rate: int
                                   ) -> tuple[float, float, np.ndarray]:
    """Per voiced frame: H1-H2, H1-A3, and formant frequency/bandwidth/level."""
    w = dsp.get_window(dsp.DEFAULT_WINDOW, frames.shape[1])
    h1h2_vals: list[float] = []
    h1a3_vals: list[float] = []
    formant_rows: list[np.ndarray] = []

    voiced_idx = np.flatnonzero(voiced)
    pre = frames[voiced_idx].copy()
    pre[:, 1:] -= PREEMPHASIS * frames[voiced_idx][:, :-1]
    a_rows, _, lpc_valid = dsp.lpc_batch(pre * w, FORMANT_LPC_ORDER)

    for j, t in enumerate(voiced_idx):
        f0 = f0_track[t]
        half = max(0.25 * f0, 2.0 * freqs[1])
        h1 = _harmonic_amplitude(mags[t], freqs, f0, half)
        h2 = _harmonic_amplitude(mags[t], freqs, 2.0 * f0, half)
        if h1 > 0.0 and h2 > 0.0:
            h1h2_vals.append(20.0 * np.log10(h1 / h2))

        if not lpc_valid[j]:
            continue
        formants = _formants_from_lpc(a_rows[j], rate)
        if len(formants) < 3:
            continue
        row = np.zeros(9)
        a3_amp = None
        for k in range(3):
            f_k, bw_k = formants[k]
            row[3 * k] = f_k
            row[3 * k + 1] = bw_k
            harm = max(1, int(round(f_k / f0)))
            amp = _harmonic_amplitude(mags[t], freqs, harm * f0, half)
            if amp > 0.0 and h1 > 0.0:
                row[3 * k + 2] = 20.0 * np.log10(amp / h1)
            if k == 2:
                a3_amp = amp
        formant_rows.append(row)
        if a3_amp is not None and a3_amp > 0.0 and h1 > 0.0:
            h1a3_vals.append(20.0 * np.log10(h1 / a3_amp))

    h1h2 = float(np.mean(h1h2_vals)) if h1h2_vals else 0.0
    h1a3 = float(np.mean(h1a3_vals)) if h1a3_vals else 0.0
    stats = np.mean(formant_rows, axis=0) if formant_rows else np.zeros(9)
    return h1h2, h1a3, stats
