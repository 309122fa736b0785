import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vda import corpus
from vda.corpus import AlignedPair, AudioSignal, ConditionLabel
from vda.features import ErrorVector, FeatureVector
from vda.model import Observations
from vda.errors import AlignmentError, FormatError, SchemaError, UnsupportedFormatError

from conftest import peak_memory


def _wav_bytes(rate, channels, fmt_tag, bits, frames: bytes) -> bytes:
    header = b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE"
    block = channels * bits // 8
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_tag, channels, rate, rate * block, block, bits
    )
    return header + fmt + b"data" + struct.pack("<I", len(frames)) + frames


def test_load_wav_zero_pcm16(tmp_path):
    path = tmp_path / "zero.wav"
    path.write_bytes(_wav_bytes(16000, 1, 1, 16, b"\x00\x00" * 16000))
    sig = corpus.load_wav(path)
    assert sig.rate == 16000
    assert len(sig) == 16000
    assert np.all(sig.samples == 0.0)


def test_load_wav_stereo_symmetric_averages_to_zero(tmp_path):
    frames = struct.pack("<hh", 16384, -16384) * 100
    path = tmp_path / "stereo.wav"
    path.write_bytes(_wav_bytes(8000, 2, 1, 16, frames))
    sig = corpus.load_wav(path)
    assert len(sig) == 100
    assert np.all(sig.samples == 0.0)


def test_load_wav_pcm16_scaling_exact(tmp_path):
    path = tmp_path / "half.wav"
    path.write_bytes(_wav_bytes(16000, 1, 1, 16, struct.pack("<h", 16384)))
    sig = corpus.load_wav(path)
    assert sig.samples[0] == 0.5  # 16384 / 32768


def test_load_wav_float32(tmp_path):
    path = tmp_path / "f32.wav"
    path.write_bytes(_wav_bytes(16000, 1, 3, 32, struct.pack("<f", 0.25)))
    sig = corpus.load_wav(path)
    assert sig.samples[0] == pytest.approx(0.25, abs=1e-7)


@pytest.mark.parametrize("rate", [0, 7, 7999, 192001, 2 ** 31 - 1])
def test_load_wav_rate_out_of_range_names_the_file_and_rate(tmp_path, rate):
    # ingest resamples to 16 kHz, so a 7 Hz header would grow these 160
    # samples to 365 714, and the prime rate 2**31 - 1 would ask for a lowpass
    # of 4.3e10 taps
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(rate, 1, 1, 16, b"\x00\x01" * 160))
    with pytest.raises(UnsupportedFormatError, match=f"rate.wav: sample rate {rate} Hz"):
        corpus.load_wav(path)


@pytest.mark.parametrize("rate", [corpus.MIN_SAMPLE_RATE, corpus.MAX_SAMPLE_RATE])
def test_load_wav_rate_range_is_inclusive(tmp_path, rate):
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(rate, 1, 1, 16, b"\x00\x01" * 160))
    assert corpus.load_wav(path).rate == rate


# Every standard rate; 11 025 Hz (640/441 of 16 kHz) needs the longest lowpass.
STANDARD_RATES = [8000, 11025, 12000, 16000, 22050, 24000, 32000, 44100, 48000, 88200,
                  96000, 176400, 192000]


@pytest.mark.parametrize("rate", STANDARD_RATES)
def test_load_wav_takes_every_standard_rate(tmp_path, rate):
    assert corpus.resample_taps(rate, corpus.CANONICAL_RATE) <= corpus.MAX_RESAMPLE_TAPS
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(rate, 1, 1, 16, b"\x00\x01" * 160))
    assert corpus.load_wav(path).rate == rate


@pytest.mark.parametrize("rate,taps", [(191999, 3839981), (44056, 110141), (8001, 320001)])
def test_load_wav_refuses_a_rate_over_the_tap_budget(tmp_path, rate, taps):
    # 191 999 Hz used to cost 2.1 s of CPU and a 415 MB tracemalloc peak to
    # resample one second
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(rate, 1, 1, 16, b"\x00\x01" * 160))
    with pytest.raises(UnsupportedFormatError,
                       match=f"rate.wav: sample rate {rate} Hz needs a {taps}-tap filter"):
        corpus.load_wav(path)


def test_resample_refuses_a_ratio_over_the_tap_budget():
    with pytest.raises(ValueError, match="191999 Hz to 16000 Hz needs a 3839981-tap filter"):
        corpus.resample(AudioSignal(np.zeros(10), 191999), 16000)


def test_resample_peak_memory_at_the_worst_accepted_rate(tmp_path):
    # 8025 Hz is 640/321 of 16 kHz: the longest accepted lowpass, and the
    # largest growth of the signal among the rates that need it. Resampling
    # one second, filter included, peaks at 11.7x the bytes of the output.
    rate = 8025
    assert corpus.resample_taps(rate, corpus.CANONICAL_RATE) == corpus.MAX_RESAMPLE_TAPS
    pcm = np.random.default_rng(0).integers(-2 ** 15, 2 ** 15, rate, dtype="<i2")
    path = tmp_path / "rate.wav"
    path.write_bytes(_wav_bytes(rate, 1, 1, 16, pcm.tobytes()))
    sig = corpus.load_wav(path)
    corpus._polyphase_taps.cache_clear()
    out, peak = peak_memory(corpus.resample, sig, corpus.CANONICAL_RATE)
    assert len(out) == corpus.CANONICAL_RATE
    assert peak < 16 * out.samples.nbytes


def test_load_wav_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        corpus.load_wav(path)


def test_load_wav_missing_data_chunk(tmp_path):
    path = tmp_path / "nodata.wav"
    blob = _wav_bytes(16000, 1, 1, 16, b"")
    path.write_bytes(blob[: blob.index(b"data")])
    with pytest.raises(FormatError):
        corpus.load_wav(path)


@pytest.mark.parametrize("fmt_tag,bits,frames,reason", [
    (3, 32, struct.pack("<3f", 0.25, math.nan, 0.0), "non-finite sample"),
    (3, 32, struct.pack("<f", -math.inf), "non-finite sample"),
    (1, 16, b"", "no whole frame"),
    (1, 16, b"\x00", "no whole frame"),
    (3, 32, b"\x00" * 3, "no whole frame"),
], ids=["nan", "inf", "empty", "one-byte", "three-bytes"])
def test_load_wav_unusable_samples_name_the_file(tmp_path, fmt_tag, bits, frames, reason):
    path = tmp_path / "unusable.wav"
    path.write_bytes(_wav_bytes(16000, 1, fmt_tag, bits, frames))
    with pytest.raises(FormatError, match=f"unusable.wav: .*{reason}"):
        corpus.load_wav(path)


# Byte offset and width of each mutable header field of a _wav_bytes file.
_SIZE_FIELDS = (4, 16, 40)  # RIFF, fmt and data chunk sizes (uint32)
_FMT_FIELDS = ((20, 2), (22, 2), (24, 4), (28, 4), (32, 2), (34, 2))  # tag .. bits
_DATA_START = 44


@st.composite
def _mutated_wav(draw):
    """A valid PCM16 or float32 WAV with one to three seeded mutations."""
    fmt_tag, bits, dtype = draw(st.sampled_from([(1, 16, "<i2"), (3, 32, "<f4")]))
    channels = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    samples = rng.uniform(-1.0, 1.0, draw(st.integers(1, 64)) * channels)
    if dtype == "<i2":
        samples = np.round(samples * 32767.0)
    blob = bytearray(_wav_bytes(16000, channels, fmt_tag, bits,
                                samples.astype(dtype).tobytes()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "size", "fmt", "payload"]))
        if kind == "truncate":
            del blob[len(blob) - draw(st.integers(0, len(blob))):]
        elif kind == "size":
            at = draw(st.sampled_from(_SIZE_FIELDS))
            blob[at:at + 4] = draw(st.integers(0, 2 ** 32 - 1)).to_bytes(4, "little")
        elif kind == "fmt":
            at, width = draw(st.sampled_from(_FMT_FIELDS))
            value = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 16, 32, 0xFFFE]),
                                   st.integers(0, 2 ** (8 * width) - 1)))
            blob[at:at + width] = value.to_bytes(width, "little")
        elif len(blob) >= _DATA_START + 4:
            at = _DATA_START + 4 * draw(st.integers(0, (len(blob) - _DATA_START) // 4 - 1))
            bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            blob[at:at + 4] = struct.pack("<f", bad)
    return bytes(blob)


@pytest.fixture(scope="module")
def mutated_path(tmp_path_factory):
    return tmp_path_factory.mktemp("wav") / "mutated.wav"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(blob=_mutated_wav())
def test_load_wav_mutations_load_finite_or_fail_as_format_errors(mutated_path, blob):
    path = mutated_path
    path.write_bytes(blob)
    try:
        sig = corpus.load_wav(path)
    except (FormatError, UnsupportedFormatError) as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert len(sig) > 0 and sig.rate > 0
        assert np.isfinite(sig.samples).all()


@pytest.mark.parametrize("fmt_tag,bits", [(6, 8), (1, 24), (3, 64)])
def test_load_wav_unsupported_codec(tmp_path, fmt_tag, bits):
    path = tmp_path / "codec.wav"
    path.write_bytes(_wav_bytes(16000, 1, fmt_tag, bits, b"\x00" * 48))
    with pytest.raises(UnsupportedFormatError):
        corpus.load_wav(path)


def test_write_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sig = AudioSignal(rng.uniform(-0.9, 0.9, 2048), 16000)
    path = tmp_path / "rt.wav"
    corpus.write_wav(path, sig)
    back = corpus.load_wav(path)
    assert back.rate == 16000
    np.testing.assert_allclose(back.samples, sig.samples, atol=1.0 / 32768)


def test_resample_identity():
    sig = AudioSignal(np.ones(100), 16000)
    assert corpus.resample(sig, 16000) is sig


def test_resample_length_arithmetic():
    sig = AudioSignal(np.zeros(16000), 16000)
    assert len(corpus.resample(sig, 10000)) == 10000
    assert len(corpus.resample(AudioSignal(np.zeros(4410), 44100), 16000)) == 1600


def test_resample_sine_keeps_peak_bin():
    rate = 16000
    t = np.arange(rate) / rate
    sig = AudioSignal(np.sin(2 * np.pi * 1000 * t), rate)
    out = corpus.resample(sig, 10000)
    spec = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spec) * 10000 / len(out.samples)
    assert abs(peak_hz - 1000.0) <= 10000 / len(out.samples)  # within one bin


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        corpus.resample(AudioSignal(np.zeros(10), 16000), 0)


RESAMPLE_RATES = [(16000, 10000), (8000, 16000), (44100, 16000), (48000, 16000),
                  (22050, 16000), (16000, 44100)]


@pytest.mark.parametrize("source,target", RESAMPLE_RATES)
def test_resample_matches_scipy_resample_poly(source, target):
    from scipy.signal import resample_poly

    g = math.gcd(source, target)
    up, down = target // g, source // g
    rng = np.random.default_rng(source + target)
    for n in (1, 2, 7, 161, 16000, 12345):
        x = rng.standard_normal(n)
        ref = resample_poly(x, up, down)
        out = corpus._resample_poly(x, up, down)
        assert out.shape == ref.shape, n
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12, err_msg=f"n={n}")
        # resample() trims or zero-pads the same output to round(n * target / source)
        n_out = int(round(n * target / source))
        expected = np.concatenate([ref, np.zeros(max(0, n_out - len(ref)))])[:n_out]
        got = corpus.resample(AudioSignal(x, source), target)
        assert got.rate == target and len(got) == n_out
        np.testing.assert_allclose(got.samples, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_matches_scipy(real):
    from scipy.fft import next_fast_len

    rng = np.random.default_rng(5)
    targets = list(range(1, 3001)) + [int(n) for n in rng.integers(3001, 400_001, 3000)]
    mismatched = [n for n in targets if corpus.next_fast_len(n, real) != next_fast_len(n, real)]
    assert not mismatched, mismatched[:5]


def _lag_scan_oracle(c, d, max_lag):
    """Exhaustive lag scan: argmax over sum c[n] d[n+tau]."""
    best, best_val = 0, -np.inf
    for tau in range(-max_lag, max_lag + 1):
        if tau >= 0:
            v = float(np.dot(c[: len(d) - tau], d[tau:]))
        else:
            v = float(np.dot(c[-tau:], d[: len(d) + tau]))
        if v > best_val:
            best, best_val = tau, v
    return best


def test_align_constructed_delay():
    rng = np.random.default_rng(1)
    x = 0.2 * rng.standard_normal(16000)
    clean = AudioSignal(x, 16000)
    degraded = AudioSignal(np.concatenate([np.zeros(160), x])[:16000], 16000)
    pair = corpus.align(clean, degraded, 400)
    assert pair.applied_lag == 160
    assert np.linalg.norm(pair.clean.samples - pair.degraded.samples) < 1e-9


def test_align_identity():
    x = 0.2 * np.random.default_rng(2).standard_normal(8000)
    pair = corpus.align(AudioSignal(x, 16000), AudioSignal(x, 16000), 100)
    assert pair.applied_lag == 0
    assert pair.applied_gain == pytest.approx(1.0)


def test_align_gain_against_scan_oracle():
    rng = np.random.default_rng(3)
    x = 0.3 * rng.standard_normal(16000)
    clean = AudioSignal(x, 16000)
    degraded_samples = 0.25 * np.concatenate([np.zeros(37), x])[:16000]
    degraded = AudioSignal(degraded_samples, 16000)
    oracle_lag = _lag_scan_oracle(x, degraded_samples, 100)
    pair = corpus.align(clean, degraded, 100)
    assert pair.applied_lag == oracle_lag == 37
    c_al = x[: 16000 - 37]
    d_al = degraded_samples[37:]
    oracle_gain = np.sqrt(np.mean(c_al ** 2)) / np.sqrt(np.mean(d_al ** 2))
    assert pair.applied_gain == pytest.approx(4.0, abs=1e-6)
    assert pair.applied_gain == pytest.approx(oracle_gain, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=-300, max_value=300))
def test_align_shift_consistent(k):
    rng = np.random.default_rng(4)
    x = 0.2 * rng.standard_normal(8000)
    if k >= 0:
        d = np.concatenate([np.zeros(k), x])[:8000]
    else:
        d = np.concatenate([x[-k:], np.zeros(-k)])
    pair = corpus.align(AudioSignal(x, 16000), AudioSignal(d, 16000), 300)
    assert pair.applied_lag == k
    assert len(pair.clean) == len(pair.degraded) <= 8000


@pytest.mark.parametrize("planted", [-300, 0, 300, "random"])
def test_align_matches_direct_correlation(planted):
    max_lag = 300
    rng = np.random.default_rng(6)
    lags = rng.integers(-max_lag, max_lag + 1, 8) if planted == "random" else [planted]
    for lag in lags:
        x = 0.2 * rng.standard_normal(int(rng.integers(3000, 5000)))
        shifted = np.concatenate([np.zeros(lag), x]) if lag >= 0 else x[-lag:]
        d = 0.6 * shifted[: int(rng.integers(3000, 5000))]
        d = d + 0.02 * rng.standard_normal(len(d))
        # np.correlate "full" index k is tau = len(d) - 1 - k, R(tau) = sum c[n] d[n + tau]
        full = np.correlate(x, d, "full")
        taus = np.arange(len(d) - 1, -len(x), -1)
        window = np.flatnonzero(np.abs(taus) <= max_lag)
        oracle_lag = int(taus[window[np.argmax(full[window])]])
        c_al, d_al = (x, d[oracle_lag:]) if oracle_lag >= 0 else (x[-oracle_lag:], d)
        n = min(len(c_al), len(d_al))
        oracle_gain = np.sqrt(np.mean(c_al[:n] ** 2)) / np.sqrt(np.mean(d_al[:n] ** 2))
        pair = corpus.align(AudioSignal(x, 16000), AudioSignal(d, 16000), max_lag)
        assert pair.applied_lag == oracle_lag == lag
        assert pair.applied_gain == pytest.approx(oracle_gain, rel=1e-12)


def _align_oracle(c, d, max_lag):
    """The lag, the overlap and the gain by the np.correlate "full" rule:
    index k is tau = len(d) - 1 - k, and the first of equal maxima in that
    order is the largest lag."""
    full = np.correlate(c, d, "full")
    taus = np.arange(len(d) - 1, -len(c), -1)
    window = np.flatnonzero(np.abs(taus) <= max_lag)
    lag = int(taus[window[np.argmax(full[window])]])
    c_al, d_al = (c, d[lag:]) if lag >= 0 else (c[-lag:], d)
    n = min(len(c_al), len(d_al))
    c_al, d_al = c_al[:n], d_al[:n]
    rms_d = float(np.sqrt(np.mean(d_al ** 2)))
    gain = float(np.sqrt(np.mean(c_al ** 2))) / rms_d if rms_d > 0.0 else 1.0
    return lag, c_al, d_al, gain


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 80),
       st.sampled_from([None, "clean", "degraded"]), st.integers(0, 2 ** 32 - 1))
def test_align_matches_correlate_oracle_over_clamped_windows(len_c, len_d, max_lag, silent, seed):
    # max_lag up to 80 against sides of 1-64 samples clamps the window on
    # either side; a silent side makes every lag tie, and the largest must win.
    # At 40 Hz the shortest accepted overlap is one sample.
    rng = np.random.default_rng(seed)
    c = np.zeros(len_c) if silent == "clean" else rng.standard_normal(len_c)
    d = np.zeros(len_d) if silent == "degraded" else rng.standard_normal(len_d)
    lag, c_al, d_al, gain = _align_oracle(c, d, max_lag)
    pair = corpus.align(AudioSignal(c, 40), AudioSignal(d, 40), max_lag)
    assert pair.applied_lag == lag
    assert pair.applied_gain == gain
    np.testing.assert_array_equal(pair.clean.samples, c_al)
    np.testing.assert_array_equal(pair.degraded.samples, d_al * gain)


def test_align_peak_memory_is_bounded():
    # Correlating over all len(c) + len(d) - 1 lags peaked at 6.3x the bytes
    # of one side on this 20 s pair; the lag window alone needs under 4x,
    # the two outputs included.
    rng = np.random.default_rng(8)
    x = 0.2 * rng.standard_normal(20 * 16000)
    d = np.concatenate([np.zeros(123), x[:-123]]) + 0.01 * rng.standard_normal(len(x))
    clean, degraded = AudioSignal(x, 16000), AudioSignal(d, 16000)
    pair, peak = peak_memory(corpus.align, clean, degraded, 4000)
    assert pair.applied_lag == 123
    assert peak < 4.0 * x.nbytes


def test_align_short_overlap_errors():
    x = 0.2 * np.random.default_rng(5).standard_normal(450)
    d = np.concatenate([np.zeros(420), x])[:450]
    with pytest.raises(AlignmentError):
        corpus.align(AudioSignal(x, 16000), AudioSignal(d, 16000), 440)


def _write_manifest_csv(path, rows, header="utterance_id,clean_path,degraded_path,G,C,D,pesq"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def test_parse_manifest_header_only(tmp_path):
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, [])
    manifest = corpus.parse_manifest(path)
    assert len(manifest) == 0


def test_parse_manifest_row_mapping(tmp_path):
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, ["u1,a.wav,b.wav,1,0,1,2.5"])
    manifest = corpus.parse_manifest(path)
    entry = manifest.entries[0]
    assert entry.label == ConditionLabel(1, 0, 1)
    assert entry.external_pesq == 2.5
    assert entry.clean_path == tmp_path / "a.wav"


def test_parse_manifest_blank_pesq(tmp_path):
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, ["u1,a.wav,b.wav,0,0,0,"])
    assert corpus.parse_manifest(path).entries[0].external_pesq is None


def test_parse_manifest_nonbinary_indicator(tmp_path):
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, ["u1,a.wav,b.wav,0,0,0,", "u2,a.wav,b.wav,2,0,0,"])
    with pytest.raises(SchemaError, match=re.escape(f"{path}: data row 2: column G must be 0 or 1, got '2'")):
        corpus.parse_manifest(path)


def test_parse_manifest_malformed_pesq_names_row(tmp_path):
    path = tmp_path / "m.csv"
    for row, message in (
        ("u2,a.wav,b.wav,0,0,1,abc", "data row 2: column pesq must be a number, got 'abc'"),
        ("u2,a.wav,b.wav,0,0,1,nan", "data row 2: column pesq must be finite, got 'nan'"),
        ("u2,a.wav,b.wav,0,0,1,-inf", "data row 2: column pesq must be finite, got '-inf'"),
        ("u2,,b.wav,0,0,1,2.5", "data row 2: column clean_path must name a file, got ''"),
        ("u2,a.wav, ,0,0,1,", "data row 2: column degraded_path must name a file, got ' '"),
    ):
        _write_manifest_csv(path, ["u1,a.wav,b.wav,0,0,0,2.5", row])
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            corpus.parse_manifest(path)


def test_parse_manifest_missing_column(tmp_path):
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, ["u1,a.wav,b.wav,0,0"], header="utterance_id,clean_path,degraded_path,G,C")
    with pytest.raises(SchemaError, match="D"):
        corpus.parse_manifest(path)


def test_manifest_round_trip(tmp_path):
    rows = [
        f"u{i},clean_{i}.wav,deg_{i}.wav,{g},{c},{d},{'' if i % 2 else 3.1}"
        for i, (g, c, d) in enumerate(
            [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)]
        )
    ]
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, rows)
    manifest = corpus.parse_manifest(path)
    out = tmp_path / "copy.csv"
    corpus.write_manifest(out, manifest)
    again = corpus.parse_manifest(out)
    assert again.entries == manifest.entries


def test_validate_manifest_counts(tmp_path):
    rows = []
    for g in (0, 1):
        for c in (0, 1):
            for d in (0, 1):
                for u in range(2):
                    clean = tmp_path / f"c{g}{c}{d}{u}.wav"
                    deg = tmp_path / f"d{g}{c}{d}{u}.wav"
                    clean.touch()
                    deg.touch()
                    rows.append(f"u{u},{clean.name},{deg.name},{g},{c},{d},")
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, rows)
    report = corpus.validate_manifest(corpus.parse_manifest(path))
    assert report.ok
    assert all(report.cell_counts[cell] == 2 for cell in corpus.ALL_CELLS)


def test_validate_manifest_missing_and_duplicates(tmp_path):
    present = tmp_path / "x.wav"
    present.touch()
    rows = [
        f"u1,{present.name},gone.wav,0,0,0,",
        f"u1,{present.name},{present.name},0,0,0,",
        f"u1,{present.name},{present.name},0,0,0,",
    ]
    path = tmp_path / "m.csv"
    _write_manifest_csv(path, rows)
    report = corpus.validate_manifest(corpus.parse_manifest(path))
    assert not report.ok
    assert tmp_path / "gone.wav" in report.missing
    assert ("u1", ConditionLabel(0, 0, 0)) in report.duplicates


def test_condition_label_rejects_nonbinary():
    with pytest.raises(ValueError):
        ConditionLabel(2, 0, 0)


@pytest.mark.parametrize("label,message", [
    ((0, 2, 0), "indicator C must be 0 or 1, got 2"),
    ((0, 0, 0.5), "indicator D must be 0 or 1, got 0.5"),
])
def test_condition_label_names_the_bad_indicator(label, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConditionLabel(*label)


def test_condition_label_compares_and_hashes_as_its_indicators():
    assert ConditionLabel(0, 1, 0) == ConditionLabel(g=0, c=1, d=0) != ConditionLabel(0, 1, 1)
    assert hash(ConditionLabel(1, 0, 1)) == hash((1, 0, 1))
    assert sorted(reversed(corpus.ALL_CELLS)) == list(corpus.ALL_CELLS)
    assert ConditionLabel(0, 1, 1) < ConditionLabel(1, 0, 0)


@pytest.mark.parametrize("make,field", [
    pytest.param(lambda: AudioSignal(np.zeros(4), 16000), "rate", id="AudioSignal"),
    pytest.param(lambda: ConditionLabel(0, 1, 0), "g", id="ConditionLabel"),
    pytest.param(lambda: corpus.CorpusManifest(()), "entries", id="CorpusManifest"),
    pytest.param(lambda: AlignedPair(AudioSignal(np.zeros(4), 16000), AudioSignal(np.ones(4), 16000),
                                     0, 1.0), "applied_gain", id="AlignedPair"),
    pytest.param(lambda: FeatureVector(np.ones(26)), "voiced", id="FeatureVector"),
    pytest.param(lambda: ErrorVector(np.ones(26)), "e", id="ErrorVector"),
    pytest.param(lambda: Observations(np.ones((2, 26)), np.zeros((2, 3)), np.zeros(2)), "y",
                 id="Observations"),
])
def test_validated_types_are_read_only_and_pickle(make, field):
    obj = make()
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert repr(pickle.loads(pickle.dumps(obj))) == repr(obj)


@pytest.mark.parametrize("degraded,reason", [
    (AudioSignal(np.zeros(5), 16000), "aligned signals must have equal length"),
    (AudioSignal(np.zeros(4), 8000), "aligned signals must share one rate"),
])
def test_aligned_pair_refuses_mismatched_sides(degraded, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        AlignedPair(AudioSignal(np.zeros(4), 16000), degraded, 0, 1.0)
