import numpy as np
import pytest

from vda import dsp, kernels
from vda.corpus import AudioSignal
from vda.errors import ConfigurationError

RATE = 16000


@pytest.mark.parametrize("length,expected", [(400, 1), (1040, 5), (399, 0)])
def test_frame_counts(length, expected):
    sig = AudioSignal(np.zeros(length), RATE)
    assert len(dsp.frame(sig, 400, 160)) == expected


def test_frame_contents_match_slices():
    x = np.arange(1000, dtype=float)
    frames = dsp.frame(AudioSignal(x, RATE), 400, 160)
    for i in range(len(frames)):
        np.testing.assert_array_equal(frames[i], x[i * 160:i * 160 + 400])


def test_frame_is_read_only_view_and_analysis_energy_matches():
    x = np.random.default_rng(3).standard_normal(RATE // 4)
    sig = AudioSignal(x, RATE)
    frames = dsp.frame(sig, 400, 160)
    assert not frames.flags.writeable
    assert np.shares_memory(frames, sig.samples)
    analysis = dsp.frame_analysis(sig)
    assert np.shares_memory(analysis.frames, sig.samples)
    np.testing.assert_array_equal(analysis.energy, np.sum(frames ** 2, axis=1))


def test_parabolic_peak_recovers_vertex():
    x = np.array([-1.0, 0.0, 1.0])
    for a, c in ((-2.0, 3.0), (0.5, -1.0)):
        for x0 in np.linspace(-0.5, 0.5, 11):
            y = a * (x - x0) ** 2 + c
            offset, height = dsp.parabolic_peak(*y)
            assert abs(offset - x0) < 1e-12
            assert abs(height - c) < 1e-12


def test_parabolic_peak_collinear_and_clipped():
    offset, height = dsp.parabolic_peak(np.array([1.0, 0.0]), np.array([2.0, 0.0]),
                                        np.array([3.0, 0.0]))
    np.testing.assert_array_equal(offset, [0.0, 0.0])
    np.testing.assert_array_equal(height, [2.0, 0.0])
    # the vertices of these parabolas lie at +-1.5
    x = np.array([-1.0, 0.0, 1.0])
    offset, _ = dsp.parabolic_peak(*np.stack([-(x - 1.5) ** 2, -(x + 1.5) ** 2], axis=1))
    np.testing.assert_array_equal(offset, [0.5, -0.5])


def test_frame_rejects_bad_hop():
    with pytest.raises(ValueError):
        dsp.frame(AudioSignal(np.zeros(800), RATE), 400, 0)


def _naive_dft_mags(x, fft_len):
    n = np.arange(fft_len)
    padded = np.zeros(fft_len)
    padded[: len(x)] = x
    bins = fft_len // 2 + 1
    out = np.empty(bins)
    for k in range(bins):
        out[k] = abs(np.sum(padded * np.exp(-2j * np.pi * k * n / fft_len)))
    return out


def test_spectrum_zero_frame():
    analysis = dsp.frame_analysis(AudioSignal(np.zeros(1040), RATE))
    assert analysis.power.shape == (5, 257)
    assert np.all(analysis.power == 0.0)


def test_spectrum_matches_naive_dft():
    rng = np.random.default_rng(0)
    for rate in (8000, 10000, RATE):
        x = rng.uniform(-1, 1, rate // 20)
        analysis = dsp.frame_analysis(AudioSignal(x, rate))
        frame_len, hop = dsp.default_frame_params(rate)
        fft_len = dsp.next_pow2(frame_len + dsp.LLR_ORDER + 1)
        assert analysis.fft_len == fft_len
        for i, row in enumerate(analysis.power):
            oracle = _naive_dft_mags(x[i * hop:i * hop + frame_len] * np.hamming(frame_len),
                                     analysis.fft_len)
            np.testing.assert_allclose(row, oracle ** 2, atol=1e-9)


def test_lpc_ar1_recovery():
    rng = np.random.default_rng(2)
    n = 16384
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = 0.9 * x[i - 1] + e[i]
    r = dsp.autocorrelate(x[None, :], 1)
    a, valid = dsp.lpc(r)
    _, gain = kernels.levinson_batch(r)
    assert valid[0]
    assert a[0, 1] == pytest.approx(-r[0, 1] / r[0, 0], abs=1e-12)  # order-1 identity
    assert a[0, 1] == pytest.approx(-0.9, abs=0.02)
    assert gain[0] >= 0.0


def test_lpc_white_noise_order2_matches_normal_equations():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4096)
    a, _ = dsp.lpc(dsp.autocorrelate(x[None, :], 2))
    r = dsp.autocorrelate(x[None, :], 2)[0]
    oracle = -np.linalg.solve(np.array([[r[0], r[1]], [r[1], r[0]]]), np.array([r[1], r[2]]))
    np.testing.assert_allclose(a[0, 1:], oracle, atol=1e-10)
    assert np.all(np.abs(a[0, 1:]) < 0.1)


def test_lpc_zero_frame_degenerate():
    _, valid = dsp.lpc(dsp.autocorrelate(np.zeros((1, 256)), 4))
    assert not valid[0]


def test_lpc_scale_covariant():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(2048)
    r = dsp.autocorrelate(x[None, :], 8)
    base_a, _ = dsp.lpc(r)
    _, base_gain = kernels.levinson_batch(r)
    for alpha in (0.25, 3.0):
        r = dsp.autocorrelate(alpha * x[None, :], 8)
        a, _ = dsp.lpc(r)
        _, gain = kernels.levinson_batch(r)
        np.testing.assert_allclose(a, base_a, atol=1e-9)
        assert gain[0] == pytest.approx(alpha ** 2 * base_gain[0], rel=1e-9)


def _assert_third_octave_placement(bank, rate, fft_len, fmin):
    """Band k's non-zero bins lie in [fmin 2^(k/3) 2^(-1/6), fmin 2^(k/3) 2^(1/6))."""
    freqs = np.arange(fft_len // 2 + 1) * rate / fft_len
    for k, row in enumerate(bank):
        center = fmin * 2.0 ** (k / 3.0)
        claimed = freqs[row > 0]
        assert len(claimed) > 0
        assert np.all((claimed >= center * 2 ** (-1 / 6)) & (claimed < center * 2 ** (1 / 6)))


def test_third_octave_centers_and_disjointness():
    bank = dsp.make_filterbank("third_octave", 10000, 512, 15, 150.0)
    _assert_third_octave_placement(bank, 10000, 512, 150.0)
    # rectangular bands are disjoint: no bin claimed twice
    claimed = (bank > 0).sum(axis=0)
    assert claimed.max() <= 1


@pytest.mark.parametrize("kind,n_bands", [("third_octave", 15), ("critical_band", 25), ("mel", 26)])
def test_filterbank_coverage(kind, n_bands):
    rate, fft_len, fmin = 10000, 512, 150.0
    bank = dsp.make_filterbank(kind, rate, fft_len, n_bands, fmin)
    freqs = np.arange(fft_len // 2 + 1) * rate / fft_len
    if kind == "third_octave":
        _assert_third_octave_placement(bank, rate, fft_len, fmin)
        hi_edge = fmin * 2.0 ** ((n_bands - 1) / 3.0) * 2 ** (1 / 6)
        inside = (freqs >= fmin) & (freqs < hi_edge)
    else:
        inside = (freqs > fmin * 1.05) & (freqs < (rate / 2 - rate / fft_len) * 0.95)
    assert bank.shape == (n_bands, fft_len // 2 + 1)
    covered = np.any(bank > 0, axis=0)
    assert np.all(covered[inside])
    assert np.all(bank >= 0)


@pytest.mark.parametrize("kind", ["third_octave", "critical_band", "mel"])
def test_filterbank_weights_are_read_only(kind):
    bank = dsp.make_filterbank(kind, 10000, 512, 15, 150.0)
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0
    # every call of a process shares the one cached array
    assert dsp.make_filterbank(kind, 10000, 512, 15, 150.0) is bank


def test_mel_band0_weights_match_hand_integration():
    rate, fft_len, n_bands, fmin = 16000, 512, 26, 50.0
    bank = dsp.make_filterbank("mel", rate, fft_len, n_bands, fmin)
    fmax = rate / 2 - rate / fft_len
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    edges = imel(np.linspace(mel(fmin), mel(fmax), n_bands + 2))
    freqs = np.arange(fft_len // 2 + 1) * rate / fft_len
    expected = 0.0
    for f in freqs:
        if edges[0] <= f < edges[1]:
            expected += (f - edges[0]) / (edges[1] - edges[0])
        elif edges[1] <= f <= edges[2]:
            expected += (edges[2] - f) / (edges[2] - edges[1])
    assert np.sum(bank[0]) == pytest.approx(expected, abs=1e-9)


def test_filterbank_edge_at_nyquist_rejected():
    with pytest.raises(ConfigurationError):
        dsp.make_filterbank("third_octave", 10000, 512, 15, 400.0)


def test_pitch_440_tone():
    t = np.arange(int(0.04 * RATE)) / RATE
    f0, _ = dsp.acf_pitch_track(np.sin(2 * np.pi * 440.0 * t)[None, :], RATE, 55.0, 1000.0)
    assert f0[0] == pytest.approx(440.0, abs=1.0)


def test_pitch_white_noise_unvoiced():
    rng = np.random.default_rng(42)
    unvoiced = 0
    for _ in range(120):
        frame = rng.standard_normal(640)
        # oracle: the raw normalized autocorrelation peak stays under threshold
        f0, peak = dsp.acf_pitch_track(frame[None, :], RATE, 55.0, 1000.0)
        assert peak[0] < dsp.VOICING_THRESHOLD
        if np.isnan(f0[0]):
            unvoiced += 1
    assert unvoiced == 120


def test_pitch_silence_unvoiced():
    f0, _ = dsp.acf_pitch_track(np.zeros((1, 640)), RATE, 55.0, 1000.0)
    assert np.isnan(f0[0])


def test_pitch_rejects_bad_range():
    with pytest.raises(ValueError):
        dsp.acf_pitch_track(np.zeros((1, 640)), RATE, 500.0, 100.0)


def test_pitch_blocks_do_not_change_the_track(monkeypatch):
    # a 150 Hz tone with a glide, then noise, then silence: voiced,
    # unvoiced and silent rows in 23 frames, so blocks of 7 leave 2 over
    rng = np.random.default_rng(8)
    t = np.arange(RATE // 4) / RATE
    x = np.concatenate((np.sin(2 * np.pi * (150.0 + 200.0 * t) * t), rng.standard_normal(RATE // 8),
                        np.zeros(RATE // 16)))
    frames = dsp.frame(AudioSignal(x, RATE), 640, 280)
    assert len(frames) == 23
    monkeypatch.setattr(dsp, "BLOCK_FRAMES", len(frames))
    f0, peak = dsp.acf_pitch_track(frames, RATE, 55.0, 1000.0)
    assert np.any(np.isfinite(f0)) and np.any(np.isnan(f0))
    for block in (7, 1):
        monkeypatch.setattr(dsp, "BLOCK_FRAMES", block)
        f0_blocked, peak_blocked = dsp.acf_pitch_track(frames, RATE, 55.0, 1000.0)
        np.testing.assert_array_equal(f0_blocked, f0)
        np.testing.assert_array_equal(peak_blocked, peak)


def test_autocorrelate_rows_do_not_depend_on_their_block():
    # The power |spec| ** 2 is the same for a row in any call. The product
    # spec * conj(spec) was not: numpy computed it as conj(s) s only in
    # calls of 256 KiB or more, so blocks of 1, 7 or 30 rows each moved
    # 16 563 of these 30 100 values.
    frames = np.random.default_rng(1).standard_normal((100, 640))
    whole = dsp.autocorrelate(frames, 300)
    for block in (1, 7, 30):
        blocked = np.concatenate([dsp.autocorrelate(frames[first:first + block], 300)
                                  for first in range(0, len(frames), block)])
        np.testing.assert_array_equal(blocked, whole)
