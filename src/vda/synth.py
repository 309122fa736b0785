"""Seeded synthetic corpus: voiced utterances with planted degradations.

Each utterance is a harmonic source through a three-resonance vocal-tract
filter with a slow syllabic amplitude envelope. Every condition cell applies
its own degradation chain (delay, gain, band-shaped noise, optional lowpass)
so that metric and feature errors vary systematically across cells. A
deterministic pseudo quality score fills the manifest's pesq column so the
composite path is exercisable without an external scorer.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import corpus
from .corpus import ALL_CELLS, AudioSignal, ConditionLabel, CorpusManifest, ManifestEntry

RATE = 16000


def _resonator(f_hz: float, bw_hz: float, rate: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.exp(-np.pi * bw_hz / rate)
    theta = 2.0 * np.pi * f_hz / rate
    a = np.array([1.0, -2.0 * r * np.cos(theta), r * r])
    return np.array([1.0 - r]), a


def voiced_utterance(rng: np.random.Generator, duration: float = 1.0,
                     rate: int = RATE) -> AudioSignal:
    """One synthetic voiced utterance: pulse train -> formant filter -> AM."""
    from scipy.signal import lfilter

    n = int(round(duration * rate))
    f0 = float(rng.uniform(95.0, 220.0))
    period = rate / f0
    source = np.zeros(n)
    pos = rng.uniform(0.0, period)
    while pos < n:
        source[int(pos)] = 1.0
        pos += period
    formants = (
        rng.uniform(550.0, 850.0),
        rng.uniform(1100.0, 1900.0),
        rng.uniform(2300.0, 3000.0),
    )
    bandwidths = (80.0, 110.0, 160.0)
    x = source
    for f, bw in zip(formants, bandwidths):
        b, a = _resonator(f, bw, rate)
        x = lfilter(b, a, x)
    t = np.arange(n) / rate
    syllable = 0.55 + 0.45 * np.sin(2.0 * np.pi * rng.uniform(2.5, 5.0) * t + rng.uniform(0, 2 * np.pi))
    x = x * syllable
    x = x + 1e-4 * rng.standard_normal(n)
    x = 0.3 * x / np.max(np.abs(x))
    return AudioSignal(x, rate)


def _lowpass(x: np.ndarray, cutoff_hz: float, rate: int) -> np.ndarray:
    from scipy.signal import butter, sosfilt

    sos = butter(6, cutoff_hz, btype="low", fs=rate, output="sos")
    return sosfilt(sos, x)


def degrade(clean: AudioSignal, label: ConditionLabel,
            rng: np.random.Generator) -> AudioSignal:
    """Condition-dependent degradation chain for one cell."""
    x = clean.samples
    rate = clean.rate
    snr_db = 22.0 - 5.0 * label.g - 4.0 * label.c + 3.0 * label.d
    delay = int(rng.integers(13, 170))
    gain = float(rng.uniform(0.6, 1.2))

    y = np.concatenate([np.zeros(delay), x])[: len(x)]
    if label.d:
        y = _lowpass(y, 3400.0, rate)
    noise = rng.standard_normal(len(y))
    if label.c:
        noise = _lowpass(noise, 2500.0, rate)
    sig_power = np.mean(y ** 2)
    noise_power = np.mean(noise ** 2)
    if noise_power > 0 and sig_power > 0:
        noise *= np.sqrt(sig_power / noise_power) * 10.0 ** (-snr_db / 20.0)
    y = gain * (y + noise)
    return AudioSignal(np.clip(y, -1.0, 1.0), rate)


def pseudo_quality(label: ConditionLabel, rng: np.random.Generator) -> float:
    """Deterministic stand-in for an externally supplied pesq score."""
    base = 3.4 - 0.5 * label.g - 0.4 * label.c + 0.3 * label.d
    return float(np.round(np.clip(base + rng.uniform(-0.2, 0.2), 1.0, 4.5), 3))


def generate_corpus(out_dir: str | Path, n_utterances: int = 16, seed: int = 0,
                    duration: float = 1.0) -> Path:
    """Write WAV pairs for every condition cell plus the manifest CSV.

    Returns the manifest path. Output is a pure function of the arguments;
    rerunning with the same seed reproduces every byte.
    """
    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entries = []
    for u in range(n_utterances):
        utt_id = f"utt{u:03d}"
        clean = voiced_utterance(rng, duration)
        clean_path = out_dir / "wav" / f"{utt_id}_clean.wav"
        corpus.write_wav(clean_path, clean)
        for label in ALL_CELLS:
            degraded = degrade(clean, label, rng)
            name = f"{utt_id}_g{label.g}c{label.c}d{label.d}.wav"
            degraded_path = out_dir / "wav" / name
            corpus.write_wav(degraded_path, degraded)
            entries.append(
                ManifestEntry(
                    utterance_id=utt_id,
                    clean_path=clean_path,
                    degraded_path=degraded_path,
                    label=label,
                    external_pesq=pseudo_quality(label, rng),
                )
            )
    manifest_path = out_dir / "manifest.csv"
    corpus.write_manifest(manifest_path, CorpusManifest(tuple(entries)))
    return manifest_path
