"""Corpus handling: WAV ingest, clean/degraded alignment, condition manifests.

All signals are converted to mono float64 on load; the canonical processing
rate is 16 kHz and loaders resample to it on ingest unless told otherwise.
"""
from __future__ import annotations

import csv
import math
import struct
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    AlignmentError,
    FormatError,
    SchemaError,
    UnsupportedFormatError,
)

CANONICAL_RATE = 16000
# Sample rates a WAV may declare. Ingest resamples to CANONICAL_RATE, with a
# lowpass of 20 * max(up, down) + 1 taps for the coprime ratio up/down, so a
# rate far from it grows the signal (by 16000 / rate) or the filter (by rate).
MIN_SAMPLE_RATE = 8000
MAX_SAMPLE_RATE = 192000
# The longest lowpass resample builds. max(up, down) is at most 640 for
# every standard rate (11 025 Hz is 640/441, 44 100 Hz 160/441); a rate
# coprime with 16 000, such as 191 999 Hz, would need 3.84 M taps.
MAX_RESAMPLE_TAPS = 20 * 640 + 1
MANIFEST_COLUMNS = ("utterance_id", "clean_path", "degraded_path", "G", "C", "D", "pesq")

# Shortest usable overlap after alignment: one default analysis frame (25 ms).
MIN_OVERLAP_SECONDS = 0.025

# Entries of a pair's feature vector: what features extracts and the model
# regresses on, and the e/x columns of errors.csv and features_*.csv.
N_FEATURES = 26

# The value columns of metrics.csv, in file order (see metrics.MetricReport.cells);
# here so that the stages that read metrics.csv need not load the metric code.
METRIC_COLUMNS = (
    "stoi", "snr_seg", "fw_snr_seg", "llr", "wss",
    "csii_high", "csii_mid", "csii_low", "ncm", "pesq", "csig", "cbak", "covl",
)


class Frozen:
    """Base of vda's validated types: a subclass's ``__init__`` checks its
    arguments and passes them here in ``__slots__`` order; the instance is
    read-only after."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class AudioSignal(Frozen):
    """Mono sample sequence with its sample rate."""

    __slots__ = ("samples", "rate")  # float64 samples, nominal range [-1, 1]

    def __init__(self, samples: np.ndarray, rate: int):
        if rate <= 0:
            raise ValueError(f"sample rate must be positive, got {rate}")
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        super().__init__(samples, rate)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.rate

    def rms(self) -> float:
        if len(self.samples) == 0:
            return 0.0
        return float(np.sqrt(np.mean(self.samples ** 2)))


class _Indicators(NamedTuple):
    g: int
    c: int
    d: int


class ConditionLabel(_Indicators):
    """Binary condition indicators: platform, receiver, sender denoising."""

    __slots__ = ()

    def __new__(cls, g: int, c: int, d: int):
        for name, value in (("G", g), ("C", c), ("D", d)):
            if value not in (0, 1):
                raise ValueError(f"indicator {name} must be 0 or 1, got {value!r}")
        return super().__new__(cls, g, c, d)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.g, self.c, self.d)


ALL_CELLS = tuple(
    ConditionLabel(g, c, d) for g in (0, 1) for c in (0, 1) for d in (0, 1)
)


class ManifestEntry(NamedTuple):
    utterance_id: str
    clean_path: Path
    degraded_path: Path
    label: ConditionLabel
    external_pesq: float | None = None


class CorpusManifest(Frozen):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[ManifestEntry, ...]):
        super().__init__(entries)

    def __len__(self) -> int:
        return len(self.entries)


class AlignedPair(Frozen):
    """Equal-length, rate-matched clean/degraded pair after lag and gain fix."""

    __slots__ = ("clean", "degraded", "applied_lag", "applied_gain")

    def __init__(self, clean: AudioSignal, degraded: AudioSignal, applied_lag: int,
                 applied_gain: float):
        if len(clean) != len(degraded):
            raise ValueError("aligned signals must have equal length")
        if clean.rate != degraded.rate:
            raise ValueError("aligned signals must share one rate")
        super().__init__(clean, degraded, applied_lag, applied_gain)

    @property
    def rate(self) -> int:
        return self.clean.rate


class ValidationReport(NamedTuple):
    missing: tuple[Path, ...]
    duplicates: tuple[tuple[str, ConditionLabel], ...]
    cell_counts: dict  # ConditionLabel -> int

    @property
    def ok(self) -> bool:
        return not self.missing and not self.duplicates


def load_wav(path: str | Path) -> AudioSignal:
    """Load a RIFF/WAVE file as a mono float64 signal.

    PCM16 samples are scaled by 1/32768; IEEE float32 passes through. Stereo
    is averaged to mono. Raises FormatError on a malformed container, a
    data chunk without one whole frame or a non-finite float sample, and
    UnsupportedFormatError on any other codec or channel count, on a
    sample rate outside MIN_SAMPLE_RATE..MAX_SAMPLE_RATE and on one whose
    resampling to CANONICAL_RATE needs over MAX_RESAMPLE_TAPS taps.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE container")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        size = int.from_bytes(raw[pos + 4:pos + 8], "little")
        body = raw[pos + 8:pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or len(fmt) < 16:
        raise FormatError(f"{path}: missing or truncated fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")

    audio_format, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE
        audio_format = struct.unpack("<H", fmt[24:26])[0]
    if not MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE:
        raise UnsupportedFormatError(
            f"{path}: sample rate {rate} Hz outside {MIN_SAMPLE_RATE}-{MAX_SAMPLE_RATE} Hz"
        )
    taps = resample_taps(rate, CANONICAL_RATE)
    if taps > MAX_RESAMPLE_TAPS:
        raise UnsupportedFormatError(
            f"{path}: sample rate {rate} Hz needs a {taps}-tap filter to resample to "
            f"{CANONICAL_RATE} Hz, over the {MAX_RESAMPLE_TAPS}-tap budget"
        )
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {channels} channels unsupported")

    if audio_format == 1 and bits == 16:
        width = 2 * channels
        usable = len(data) // width * width
        x = np.frombuffer(data[:usable], dtype="<i2").astype(np.float64)
        x /= 32768.0
    elif audio_format == 3 and bits == 32:
        width = 4 * channels
        usable = len(data) // width * width
        x = np.frombuffer(data[:usable], dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            raise FormatError(f"{path}: non-finite sample value")
    else:
        raise UnsupportedFormatError(
            f"{path}: codec tag {audio_format} at {bits}-bit unsupported"
        )
    if not usable:
        raise FormatError(f"{path}: data chunk holds no whole frame")

    if channels == 2:
        x = x.reshape(-1, 2).mean(axis=1)
    return AudioSignal(x, int(rate))


def write_wav(path: str | Path, sig: AudioSignal) -> None:
    """Write a mono PCM16 WAV file (samples clipped to [-1, 1))."""
    x = np.clip(sig.samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(x * 32768.0).astype("<i2")
    data = pcm.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, sig.rate, sig.rate * 2, 2, 16)
    Path(path).write_bytes(header + fmt + b"data" + struct.pack("<I", len(data)) + data)


def next_fast_len(target: int, real: bool = False) -> int:
    """Smallest FFT-friendly length >= ``target``, as ``scipy.fft.next_fast_len``.

    Real transforms take 5-smooth lengths (factors 2, 3, 5), complex ones
    11-smooth lengths (2, 3, 5, 7, 11); lengths up to 6 are returned as is.
    """
    if target < 0:
        raise ValueError("target length must be non-negative")
    if target <= 6:
        return target
    bound = 1 << (target - 1).bit_length()  # a power of two is smooth
    odd = [1]  # the odd smooth numbers below bound
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m < bound:
                grown.append(m)
                m *= p
        odd = grown
    # m * 2**k >= target  <=>  2**k > (target - 1) // m
    return min(m << ((target - 1) // m).bit_length() for m in odd)


@lru_cache(maxsize=8)
def _polyphase_taps(up: int, down: int) -> np.ndarray:
    """``(up, n_taps)`` phases of the ``resample_poly`` lowpass for coprime
    ``up/down``, each reversed to dot with an input window ending at its
    newest sample.

    The lowpass is scipy's default: 20 * max(up, down) + 1 taps of a
    Kaiser(5)-windowed sinc at cutoff 1/max(up, down) of Nyquist, scaled to
    unit DC gain and then by ``up``. Phase p holds h[p], h[p + up], ...
    """
    half_len = 10 * max(up, down)
    cutoff = 1.0 / max(up, down)
    m = np.arange(2 * half_len + 1) - half_len
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(2 * half_len + 1, 5.0)
    h = h / np.sum(h) * up
    n_taps = -(-len(h) // up)
    padded = np.zeros(up * n_taps)
    padded[:len(h)] = h
    phases = np.ascontiguousarray(padded.reshape(n_taps, up).T[:, ::-1])
    phases.flags.writeable = False
    return phases


def _resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase FIR resampling by coprime ``up/down``, as
    ``scipy.signal.resample_poly`` with its default window and zero padding.

    There are ceil(len(x) * up / down) outputs, and output k is centred on
    input position k * down / up. Outputs k, k + up, k + 2 * up, ... share
    one phase of the filter and step through the input by ``down``.
    """
    phases = _polyphase_taps(up, down)
    n_taps = phases.shape[1]
    half_len = 10 * max(up, down)
    n_in = len(x)
    n_out = -(-n_in * up // down)
    # output k sums h[t - i * up] * x[i] with t = k * down + half_len, so its
    # phase is t % up and its newest input sample t // up
    t = np.arange(min(up, n_out)) * down + half_len
    last_newest = ((n_out - 1) * down + half_len) // up
    padded = np.concatenate([np.zeros(n_taps - 1), x, np.zeros(max(0, last_newest + 1 - n_in))])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_taps)
    out = np.empty(n_out)
    for k0, (newest, phase) in enumerate(zip(t // up, t % up)):
        out[k0::up] = windows[newest::down][: len(range(k0, n_out, up))] @ phases[phase]
    return out


def resample_taps(source_rate: int, target_rate: int) -> int:
    """Taps of the lowpass that resample builds from ``source_rate`` to
    ``target_rate``: 20 * max(up, down) + 1 for their coprime ratio."""
    return 20 * max(source_rate, target_rate) // math.gcd(source_rate, target_rate) + 1


def resample(sig: AudioSignal, target_rate: int) -> AudioSignal:
    """Band-limited resample to ``target_rate``; identity when rates match.

    Output length is round(len * target/source). A ratio whose lowpass
    would pass MAX_RESAMPLE_TAPS is a ValueError.
    """
    if target_rate <= 0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    if target_rate == sig.rate:
        return sig
    taps = resample_taps(sig.rate, int(target_rate))
    if taps > MAX_RESAMPLE_TAPS:
        raise ValueError(f"resampling {sig.rate} Hz to {target_rate} Hz needs a {taps}-tap "
                         f"filter, over the {MAX_RESAMPLE_TAPS}-tap budget")
    g = math.gcd(sig.rate, int(target_rate))
    up, down = target_rate // g, sig.rate // g
    out = _resample_poly(sig.samples, up, down)  # ceil(len * up / down) samples, never too few
    n_out = int(round(len(sig.samples) * target_rate / sig.rate))
    return AudioSignal(out[:n_out], int(target_rate))


def align(clean: AudioSignal, degraded: AudioSignal, max_lag: int) -> AlignedPair:
    """Align a degraded recording to its clean reference.

    The lag maximizing the cross-correlation within +-max_lag (the largest
    of equal maxima) is removed, both signals are truncated to the common overlap, and the degraded side
    is rescaled by RMS(clean)/RMS(degraded) over that overlap (gain 1 when
    the degraded overlap is silent).
    """
    if clean.rate != degraded.rate:
        raise ValueError("clean and degraded must share one sample rate")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    c = clean.samples
    d = degraded.samples
    if len(c) == 0 or len(d) == 0:
        raise AlignmentError("cannot align an empty signal")

    # R(tau) = sum_n c[n] * d[n + tau] over the feasible lags lo..hi within
    # +-max_lag, taken circularly at a length where none of them wraps
    lo = max(-max_lag, 1 - len(c))
    hi = min(max_lag, len(d) - 1)
    nfft = next_fast_len(max(len(c), len(d)) + max(-lo, hi), real=True)
    spec = np.fft.rfft(c, nfft)
    np.conj(spec, out=spec)
    spec *= np.fft.rfft(d, nfft)
    corr = np.fft.irfft(spec, nfft)
    del spec
    lags = np.arange(hi, lo - 1, -1)  # descending, so argmax takes the largest of equal maxima
    lag = int(lags[np.argmax(corr[lags])])
    # freed before the outputs are made, so that they take its place in the
    # heap: made above it, they left holes that raised the peak RSS of the
    # metrics stage on 20 s pairs from 122.7 to 130.4 MB
    del corr

    if lag >= 0:
        c_al = c[: len(c)]
        d_al = d[lag:]
    else:
        c_al = c[-lag:]
        d_al = d
    n = min(len(c_al), len(d_al))
    min_overlap = int(round(MIN_OVERLAP_SECONDS * clean.rate))
    if n < max(min_overlap, 1):
        raise AlignmentError(
            f"overlap after shift is {n} samples, shorter than one frame"
        )
    c_al = c_al[:n]
    d_al = d_al[:n]

    rms_d = float(np.sqrt(np.mean(d_al ** 2)))
    rms_c = float(np.sqrt(np.mean(c_al ** 2)))
    gain = rms_c / rms_d if rms_d > 0.0 else 1.0
    return AlignedPair(
        # a copy, not a view that holds all of clean: a view raised 20 s pairs' peak RSS by 2 MB
        clean=AudioSignal(c_al.copy(), clean.rate),
        degraded=AudioSignal(d_al * gain, clean.rate),
        applied_lag=lag,
        applied_gain=gain,
    )


def _parse_indicator(value: str, column: str, where: str) -> int:
    text = (value or "").strip()
    if text not in ("0", "1"):
        raise SchemaError(f"{where}: column {column} must be 0 or 1, got {value!r}")
    return int(text)


def parse_manifest(path: str | Path) -> CorpusManifest:
    """Parse a corpus manifest CSV.

    Expected header: utterance_id,clean_path,degraded_path,G,C,D,pesq
    (the pesq column may be blank, and is finite where it is not). Paths
    must not be blank and are resolved relative to the manifest's directory.
    A bad row is a SchemaError naming the file and the row, counting data
    rows from 1 after the header (blank lines are not rows).
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty manifest, expected a header row")
        missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
        for i, row in enumerate(reader, start=1):
            where = f"{path}: data row {i}"
            label = ConditionLabel(
                _parse_indicator(row["G"], "G", where),
                _parse_indicator(row["C"], "C", where),
                _parse_indicator(row["D"], "D", where),
            )
            pesq_text = (row.get("pesq") or "").strip()
            try:
                pesq = float(pesq_text) if pesq_text else None
            except ValueError:
                raise SchemaError(
                    f"{where}: column pesq must be a number, got {row['pesq']!r}"
                ) from None
            if pesq is not None and not math.isfinite(pesq):
                raise SchemaError(f"{where}: column pesq must be finite, got {row['pesq']!r}")
            for column in ("clean_path", "degraded_path"):
                if not (row[column] or "").strip():
                    raise SchemaError(
                        f"{where}: column {column} must name a file, got {row[column]!r}"
                    )
            entries.append(
                ManifestEntry(
                    utterance_id=row["utterance_id"].strip(),
                    clean_path=base / row["clean_path"],
                    degraded_path=base / row["degraded_path"],
                    label=label,
                    external_pesq=pesq,
                )
            )
    return CorpusManifest(tuple(entries))


def write_manifest(path: str | Path, manifest: CorpusManifest) -> None:
    """Write a manifest CSV (inverse of parse_manifest, paths relativized)."""
    path = Path(path)
    base = path.parent
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            clean = _relativize(e.clean_path, base)
            degraded = _relativize(e.degraded_path, base)
            pesq = "" if e.external_pesq is None else repr(float(e.external_pesq))
            writer.writerow(
                [e.utterance_id, clean, degraded, e.label.g, e.label.c, e.label.d, pesq]
            )


def _relativize(p: Path, base: Path) -> str:
    try:
        return p.relative_to(base).as_posix()
    except ValueError:
        return p.as_posix()


def validate_manifest(manifest: CorpusManifest) -> ValidationReport:
    """Report missing files, duplicate keys, and per-cell utterance counts."""
    missing: list[Path] = []
    seen: set[tuple[str, ConditionLabel]] = set()
    duplicates: list[tuple[str, ConditionLabel]] = []
    counts: dict[ConditionLabel, int] = {cell: 0 for cell in ALL_CELLS}
    for e in manifest.entries:
        for p in (e.clean_path, e.degraded_path):
            if not Path(p).exists():
                missing.append(Path(p))
        key = (e.utterance_id, e.label)
        if key in seen:
            duplicates.append(key)
        else:
            seen.add(key)
        counts[e.label] = counts.get(e.label, 0) + 1
    return ValidationReport(tuple(missing), tuple(duplicates), counts)
