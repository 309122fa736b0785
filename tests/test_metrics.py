import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import butter, sosfilt

from vda import corpus, dsp, metrics
from vda.corpus import AlignedPair, AudioSignal
from vda.errors import DegenerateInputError, MetricError, PreconditionError

from conftest import identity_pair, make_speech_like, noisy_pair, peak_memory

RATE = 16000


@pytest.fixture(scope="module")
def sweep():
    return make_speech_like()


@pytest.fixture(scope="module")
def sweep_identity(sweep):
    return identity_pair(sweep)


# ---------------------------------------------------------------- snr_seg

def test_snr_seg_identity_hits_ceiling(sweep_identity):
    assert metrics.snr_seg(sweep_identity) == 35.0


def test_snr_seg_error_equals_signal(sweep):
    pair = AlignedPair(sweep, AudioSignal(2.0 * sweep.samples, RATE), 0, 1.0)
    assert metrics.snr_seg(pair) == pytest.approx(0.0, abs=1e-12)


def test_snr_seg_matches_per_frame_oracle():
    rng = np.random.default_rng(10)
    x = 0.3 * rng.standard_normal(RATE)
    d = x + 0.1 * rng.standard_normal(RATE)
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    got = metrics.snr_seg(pair)
    vals = []
    for i in range((RATE - 400) // 160 + 1):
        c = x[i * 160:i * 160 + 400]
        dd = d[i * 160:i * 160 + 400]
        ec = np.sum(c ** 2)
        if ec == 0.0:
            continue
        vals.append(min(max(10 * np.log10(ec / np.sum((c - dd) ** 2)), -10.0), 35.0))
    assert got == pytest.approx(np.mean(vals), abs=1e-9)


def test_snr_seg_all_silent_errors():
    pair = AlignedPair(AudioSignal(np.zeros(RATE), RATE), AudioSignal(np.zeros(RATE), RATE), 0, 1.0)
    with pytest.raises(DegenerateInputError):
        metrics.snr_seg(pair)


def test_segmental_clamps_on_adversarial_inputs():
    rng = np.random.default_rng(11)
    cases = []
    noise = AudioSignal(0.5 * rng.standard_normal(RATE), RATE)
    cases.append(AlignedPair(noise, AudioSignal(0.5 * rng.standard_normal(RATE), RATE), 0, 1.0))
    dc = AudioSignal(np.full(RATE, 0.3), RATE)
    cases.append(AlignedPair(dc, AudioSignal(np.full(RATE, -0.3), RATE), 0, 1.0))
    spiky = np.zeros(RATE)
    spiky[100] = 1.0
    cases.append(AlignedPair(AudioSignal(spiky, RATE), noise, 0, 1.0))
    for pair in cases:
        assert -10.0 <= metrics.snr_seg(pair) <= 35.0
        assert -10.0 <= metrics.fw_snr_seg(pair) <= 35.0


# ---------------------------------------------------------------- fw_snr_seg

def test_fw_snr_seg_identity(sweep_identity):
    assert metrics.fw_snr_seg(sweep_identity) == 35.0


def test_fw_snr_seg_rewards_out_of_band_noise():
    rng = np.random.default_rng(5)
    sos_lo = butter(6, 3000, btype="low", fs=RATE, output="sos")
    x = sosfilt(sos_lo, rng.standard_normal(RATE)) * 0.2
    sos_hi = butter(6, 4000, btype="high", fs=RATE, output="sos")
    n = sosfilt(sos_hi, rng.standard_normal(RATE))
    n *= np.sqrt(np.mean(x ** 2) / np.mean(n ** 2)) * 0.5
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(x + n, RATE), 0, 1.0)
    assert metrics.fw_snr_seg(pair) > metrics.snr_seg(pair)


def test_fw_snr_seg_single_frame_matches_band_oracle():
    rng = np.random.default_rng(6)
    x = 0.3 * rng.standard_normal(400)
    d = x + 0.05 * rng.standard_normal(400)
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    got = metrics.fw_snr_seg(pair)

    bank = dsp.make_filterbank("critical_band", RATE, 512, 25, 50.0)
    w = np.hamming(400)
    bc = np.sqrt((np.abs(np.fft.rfft(x * w, 512)) ** 2) @ bank.T)
    bd = np.sqrt((np.abs(np.fft.rfft(d * w, 512)) ** 2) @ bank.T)
    snrs = np.empty(25)
    for k in range(25):
        diff2 = (bc[k] - bd[k]) ** 2
        snrs[k] = 10 * np.log10(bc[k] ** 2 / diff2) if diff2 > 0 else 35.0
    snrs = np.clip(snrs, -10.0, 35.0)
    weights = bc ** 0.2
    oracle = np.sum(weights * snrs) / np.sum(weights)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_frame_exclusion_masks_shared():
    # half-silent clean signal: both segmental metrics must use the same mask
    rng = np.random.default_rng(7)
    x = np.concatenate([np.zeros(RATE // 2), 0.3 * rng.standard_normal(RATE // 2)])
    d = x + 0.01 * rng.standard_normal(RATE)
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    mask = dsp.frame_analysis(pair.clean).energy > 0.0
    assert 0 < mask.sum() < len(mask)
    # both run without error and respect the same active frame set
    assert np.isfinite(metrics.snr_seg(pair))
    assert np.isfinite(metrics.fw_snr_seg(pair))


# ---------------------------------------------------------------- llr

def test_llr_identity(sweep_identity):
    assert metrics.llr(sweep_identity) == pytest.approx(0.0, abs=1e-9)


def test_llr_nonnegative():
    rng = np.random.default_rng(8)
    x = 0.3 * rng.standard_normal(RATE)
    for snr in (20.0, 5.0):
        d = x + np.sqrt(np.mean(x ** 2)) * 10 ** (-snr / 20) * rng.standard_normal(RATE)
        pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
        assert metrics.llr(pair) >= -1e-12


def _llr_oracle(x, d):
    """Independent LPC (Toeplitz solve) + explicit quadratic forms + trim."""
    order = 10
    vals = []
    w = np.hamming(400)
    for i in range((len(x) - 400) // 160 + 1):
        c = x[i * 160:i * 160 + 400] * w
        dd = d[i * 160:i * 160 + 400] * w
        rc = np.array([np.dot(c[: 400 - k], c[k:]) for k in range(order + 1)])
        rd = np.array([np.dot(dd[: 400 - k], dd[k:]) for k in range(order + 1)])
        if rc[0] <= 0 or rd[0] <= 0:
            continue
        toe_c = np.array([[rc[abs(i2 - j2)] for j2 in range(order)] for i2 in range(order)])
        toe_d = np.array([[rd[abs(i2 - j2)] for j2 in range(order)] for i2 in range(order)])
        ac = np.concatenate([[1.0], -np.linalg.solve(toe_c, rc[1:])])
        ad = np.concatenate([[1.0], -np.linalg.solve(toe_d, rd[1:])])
        big = np.array([[rc[abs(i2 - j2)] for j2 in range(order + 1)] for i2 in range(order + 1)])
        num = ad @ big @ ad
        den = ac @ big @ ac
        if num > 0 and den > 0:
            vals.append(np.log(num / den))
    vals = np.sort(vals)
    keep = max(1, int(round(0.95 * len(vals))))
    return float(np.mean(vals[:keep]))


@pytest.mark.parametrize("rate", [8000, 10000, 16000, 44100])
def test_llr_autocorrelation_reads_the_shared_spectra(rate):
    # from the analysis's power spectra, exact at every rate, 10 kHz
    # included, where a 256-point FFT would wrap
    rng = np.random.default_rng(3)
    analysis = dsp.frame_analysis(AudioSignal(rng.uniform(-1, 1, rate // 10), rate))
    windowed = analysis.frames * np.hamming(analysis.frames.shape[1])
    assert np.array_equal(metrics._autocorrelation(analysis),
                          dsp.autocorrelate(windowed, metrics.LLR_ORDER))


def test_llr_matches_matrix_oracle():
    rng = np.random.default_rng(9)
    n = RATE
    e = 0.05 * rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = 0.8 * x[i - 1] + e[i]
    d = np.empty(n)
    d[0] = e[0]
    for i in range(1, n):
        d[i] = -0.8 * d[i - 1] + e[i]
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    assert metrics.llr(pair) == pytest.approx(_llr_oracle(x, d), abs=1e-9)


# ---------------------------------------------------------------- wss

def test_wss_identity(sweep_identity):
    assert metrics.wss(sweep_identity) == 0.0


def test_wss_nonnegative():
    rng = np.random.default_rng(12)
    x = 0.3 * rng.standard_normal(RATE)
    d = x + 0.2 * rng.standard_normal(RATE)
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    assert metrics.wss(pair) >= 0.0


def _wss_single_frame_oracle(x, d):
    bank = dsp.make_filterbank("critical_band", RATE, 512, 36, 50.0)
    w = np.hamming(400)

    def band_db(sig):
        p = (np.abs(np.fft.rfft(sig * w, 512)) ** 2) @ bank.T
        p = np.maximum(p, p.max() * 1e-10)
        return 10 * np.log10(p)

    def weights_for(db):
        nb = len(db)
        loc = np.empty(nb - 1)
        for k in range(nb - 1):
            if db[k + 1] > db[k]:
                j = k
                while j < nb - 1 and db[j + 1] > db[j]:
                    j += 1
            else:
                j = k
                while j > 0 and db[j - 1] >= db[j]:
                    j -= 1
            loc[k] = db[j]
        wmax = 20.0 / (20.0 + db.max() - db[:-1])
        wloc = 1.0 / (1.0 + loc - db[:-1])
        return wmax * wloc

    dbc, dbd = band_db(x), band_db(d)
    wgt = 0.5 * (weights_for(dbc) + weights_for(dbd))
    sc, sd = np.diff(dbc), np.diff(dbd)
    return float(np.sum(wgt * (sc - sd) ** 2) / np.sum(wgt))


def test_wss_single_frame_matches_slope_oracle():
    rng = np.random.default_rng(13)
    x = 0.3 * rng.standard_normal(400)
    d = 0.3 * rng.standard_normal(400)
    pair = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    assert metrics.wss(pair) == pytest.approx(_wss_single_frame_oracle(x, d), abs=1e-6)


# ---------------------------------------------------------------- csii

def test_csii_identity(sweep_identity):
    high, mid, low = metrics.csii(sweep_identity)
    for v in (high, mid, low):
        assert v == pytest.approx(1.0, abs=1e-6)


def test_csii_components_in_unit_interval(sweep):
    pair = noisy_pair(sweep, 5.0)
    for v in metrics.csii(pair):
        if v is not None:
            assert 0.0 <= v <= 1.0


def test_csii_high_above_low_under_noise(sweep):
    for seed in range(10):
        pair = noisy_pair(sweep, 0.0, seed=100 + seed)
        high, _, low = metrics.csii(pair)
        assert high is not None and low is not None
        assert high > low


def test_csii_all_regions_empty_errors():
    pair = AlignedPair(AudioSignal(np.zeros(RATE), RATE), AudioSignal(np.zeros(RATE), RATE), 0, 1.0)
    with pytest.raises(DegenerateInputError):
        metrics.csii(pair)


# ---------------------------------------------------------------- ncm

def test_ncm_identity(sweep_identity):
    assert metrics.ncm(sweep_identity) == pytest.approx(1.0, abs=1e-3)


def test_ncm_in_unit_interval(sweep):
    for snr in (10.0, -5.0):
        assert 0.0 <= metrics.ncm(noisy_pair(sweep, snr)) <= 1.0


def test_ncm_monotone_in_snr(sweep):
    vals = [metrics.ncm(noisy_pair(sweep, snr)) for snr in (20.0, 0.0, -10.0)]
    assert vals[0] > vals[1] > vals[2]


def _band_envelopes_reference(sig, bank_weights):
    """Float64 full-rate band envelopes: every band's analytic spectrum is the
    whole spectrum times a dense gather of its weights."""
    x = sig.samples
    n = len(x)
    nfft = next_fast_len(n)
    spec = np.fft.rfft(x, nfft)
    freqs = np.fft.rfftfreq(nfft, 1.0 / sig.rate)
    bin_hz_bank = (sig.rate / 2.0) / (bank_weights.shape[1] - 1)
    idx = np.clip(np.round(freqs / bin_hz_bank).astype(int), 0, bank_weights.shape[1] - 1)
    analytic_spec = np.zeros((bank_weights.shape[0], nfft), dtype=complex)
    analytic_spec[:, : len(spec)] = spec[None, :] * bank_weights[:, idx]
    analytic_spec[:, 1:(nfft + 1) // 2] *= 2.0
    env = np.abs(np.fft.ifft(analytic_spec, axis=1))
    env_spec = np.fft.rfft(env, axis=1)
    roll = np.clip((freqs - metrics.NCM_ENV_LOWPASS_HZ) / metrics.NCM_ENV_LOWPASS_HZ, 0.0, 1.0)
    env_spec *= 0.5 * (1.0 + np.cos(np.pi * roll))
    return np.fft.irfft(env_spec, nfft, axis=1)[:, :n]


def _ncm_pairs():
    for duration in (0.384, 1.0, 5.0):
        sig = make_speech_like(seed=5, duration=duration)
        for snr in (20.0, 10.0, 0.0, -10.0):
            yield f"{duration}s/{snr:+.0f}dB", noisy_pair(sig, snr)
    # long enough that ncm's row groups hold 4 rows (of q = 25 600)
    yield "8.0s/+0dB", noisy_pair(make_speech_like(seed=5, duration=8.0), 0.0)
    # 16011 samples is not 5-smooth, so nfft > n and ncm sums its envelopes
    # over a crop of the transform, not over the whole circle
    sig = make_speech_like(seed=5, duration=1.0007)
    assert corpus.next_fast_len(len(sig.samples)) > len(sig.samples)
    yield "1.0007s/+0dB", noisy_pair(sig, 0.0)
    sig = make_speech_like(seed=5)
    sos = butter(6, 3400.0, fs=RATE, output="sos")
    yield "lowpass-3.4kHz", AlignedPair(sig, AudioSignal(sosfilt(sos, sig.samples), RATE), 0, 1.0)
    yield "identity", identity_pair(sig)


def _ncm_reference(pair):
    """Float64 ncm from _band_envelopes_reference's time-domain envelopes:
    mean removal and inner products over the pair's samples."""
    frame_len, _ = dsp.default_frame_params(pair.rate)
    bank = dsp.make_filterbank("critical_band", pair.rate, dsp.next_pow2(frame_len),
                               metrics.NCM_BANDS, 150.0)
    env_c, env_d = (_band_envelopes_reference(sig, bank) for sig in (pair.clean, pair.degraded))
    importance = np.sqrt(np.mean(env_c ** 2, axis=1))
    env_c = env_c - env_c.mean(axis=1, keepdims=True)
    env_d = env_d - env_d.mean(axis=1, keepdims=True)
    r = np.sum(env_c * env_d, axis=1) / np.sqrt(np.sum(env_c ** 2, axis=1) * np.sum(env_d ** 2, axis=1))
    r2 = np.minimum(r ** 2, 1.0)
    with np.errstate(divide="ignore"):
        snr_app = np.clip(10.0 * np.log10(r2 / (1.0 - r2)), -metrics.SDR_CLIP_DB, metrics.SDR_CLIP_DB)
    transfer = (snr_app + metrics.SDR_CLIP_DB) / (2.0 * metrics.SDR_CLIP_DB)
    return np.sum(importance * transfer) / np.sum(importance)


def test_ncm_matches_float64_envelope_oracle():
    for label, pair in _ncm_pairs():
        value = metrics.ncm(pair)
        assert value == pytest.approx(_ncm_reference(pair), abs=1e-6), label
    assert value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("n,nfft,keep", [(400, 400, 7), (333, 400, 7), (400, 400, 1), (333, 400, 1),
                                         (300_017, 320_000, 1000)])
def test_crop_sums_match_time_domain_sums(n, nfft, keep):
    # the closed-form sums over the first n samples of envelopes held as
    # spectra, against the envelopes themselves
    rng = np.random.default_rng(keep)
    a, b = rng.standard_normal((2, 4, keep)) + 1j * rng.standard_normal((2, 4, keep))

    def envelopes(coeffs):
        spec = np.zeros((len(coeffs), nfft // 2 + 1), dtype=complex)
        spec[:, 0] = coeffs[:, 0] * nfft
        spec[:, 1:keep] = coeffs[:, 1:] * nfft / 2.0
        return np.fft.irfft(spec, nfft, axis=1)[:, :n]

    x, y = envelopes(a), envelopes(b)
    want = np.stack([x.sum(axis=1), y.sum(axis=1), (x * x).sum(axis=1), (y * y).sum(axis=1),
                     (x * y).sum(axis=1)])
    got = metrics._crop_sums(a, b, metrics._crop_kernel(n, nfft, keep))
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())


def _band_envelopes_full_length(spectra, grid, bank_weights, bands, lowpass):
    """The full-length route to _band_envelopes' coefficients: each band's
    analytic spectrum filled over its run of bins, one nfft-point complex64
    inverse FFT, |.|, the rfft, and its first keep bins lowpassed and
    scaled."""
    from scipy import fft as sp_fft

    nfft = grid.p * grid.q
    weights = bank_weights[bands]
    spec = np.zeros((2, len(weights), nfft), dtype=np.complex64)
    for band, (w, lo, hi) in enumerate(zip(weights, grid.los[bands], grid.his[bands])):
        spec[:, band, lo:hi] = spectra[:, lo:hi] * w[grid.idx[lo:hi]]
    env = np.abs(sp_fft.ifft(spec, axis=-1))
    coeffs = sp_fft.rfft(env, axis=-1)[..., :len(lowpass)] * lowpass * (2.0 / nfft)
    coeffs[..., 0] /= 2.0
    return coeffs


def _ncm_bank():
    frame_len, _ = dsp.default_frame_params(RATE)
    return dsp.make_filterbank("critical_band", RATE, dsp.next_pow2(frame_len),
                               metrics.NCM_BANDS, 150.0)


@pytest.mark.parametrize("nfft,p", [(320_000, 5), (15_972, 6), (11 ** 4, 1)])
def test_polyphase_envelopes_match_full_length_route(nfft, p):
    # 320 000 = 5 rows of 64 000 (a 20 s pair), 15 972 = 2^2 3 11^3 = 6 rows
    # of 2662; no divisor of 11^4 below it holds the widest band, so q = nfft
    sig = make_speech_like(seed=5, duration=nfft / RATE)
    pair = noisy_pair(sig, 5.0)
    bank = _ncm_bank()
    spectra = metrics._analytic_spectra(pair, nfft)
    lowpass = metrics._envelope_lowpass(nfft, RATE)
    grid = metrics._envelope_grid(nfft, RATE, bank, len(lowpass))
    assert (grid.p, grid.p * grid.q) == (p, nfft)
    got = metrics._band_envelopes(spectra, grid, bank, lowpass)
    assert got.shape == (2, metrics.NCM_BANDS, len(lowpass))
    for first in range(0, metrics.NCM_BANDS, 2):  # the reference in 2-band blocks
        bands = slice(first, first + 2)
        want = _band_envelopes_full_length(spectra, grid, bank, bands, lowpass)
        np.testing.assert_allclose(got[:, bands], want, rtol=0.0, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("nfft,q,rows", [(16_000, 3200, 20), (32_000, 6400, 8),
                                         (320_000, 64_000, 4), (11 ** 4, 11 ** 4, 4)])
def test_ncm_group_rows(nfft, q, rows):
    # a 1 s pair; a 2 s pair, whose budget holds 10 rows; a 20 s pair, where
    # 4 rows exceed it; and the full-length route (p = 1)
    bank = _ncm_bank()
    grid = metrics._envelope_grid(nfft, RATE, bank, len(metrics._envelope_lowpass(nfft, RATE)))
    assert grid.q == q
    group = metrics._group_rows(grid.q)
    assert group == rows
    assert group % 4 == 0 and group >= 4
    row_bytes = np.dtype(np.complex64).itemsize * grid.q
    assert group * row_bytes <= metrics.NCM_GROUP_BYTES or group == 4
    assert (group + 4) * row_bytes > metrics.NCM_GROUP_BYTES


def test_ncm_row_groups_do_not_change_ncm(monkeypatch):
    # groups of 4 and 8 rows split runs of p = 5 rows across two groups; one
    # group holds every row. The default is 20 rows at 1 s, 4 at 8 and 20 s.
    pairs = [noisy_pair(make_speech_like(seed=5, duration=duration), 5.0)
             for duration in (1.0, 8.0, 20.0)]
    default = [metrics.ncm(pair) for pair in pairs]
    for group in (4, 8, 10 ** 6):
        monkeypatch.setattr(metrics, "_group_rows", lambda q: group)
        assert [metrics.ncm(pair) for pair in pairs] == default, group


def _peak_memory(op, pair) -> float:
    """The tracemalloc peak of op(pair), in multiples of one side's sample bytes."""
    return peak_memory(op, pair)[1] / pair.clean.samples.nbytes


def test_ncm_peak_memory_is_bounded():
    # Built for all 20 bands at once, the envelopes of both sides peaked at
    # 82.8x the bytes of one side's samples (318 MB on this 30 s pair); in
    # blocks of 4 bands they took 15.4x, in blocks of 2 9.4x, and through
    # one buffer of 4 polyphase rows they take 5.4x.
    pair = noisy_pair(make_speech_like(seed=5, duration=30.0), 0.0)
    assert _peak_memory(metrics.ncm, pair) < 6.2


def test_frame_metrics_peak_memory_is_bounded():
    # With every frame matrix copied out of the signal, evaluate_pair without
    # ncm peaked at 24.4x the bytes of one side's samples on this 20 s pair;
    # with the frames as views of the samples 19.4x, and with the llr
    # autocorrelation and the csii cross-spectrum taken in blocks of frames
    # 12.8x, of which both sides' frame analyses held 9.6x. With no complex
    # spectra kept, the analyses hold 3.2x (their power), snr_seg and wss
    # run in blocks of frames, and the whole takes 5.4x; with csii's region
    # rows gathered into one reused buffer, 4.6x.
    pair = noisy_pair(make_speech_like(seed=5, duration=20.0), 0.0)
    selected = tuple(m for m in metrics.METRIC_NAMES if m != "ncm")
    assert _peak_memory(lambda p: metrics.evaluate_pair(p, selected=selected), pair) < 5.3


def test_stoi_peak_memory_is_bounded():
    # With the statistics of all the envelope segments at once, stoi peaked
    # at 15.5x the bytes of one side's samples on this 20 s pair; in blocks
    # of segments it took 9.5x, and with the frames, their transforms and
    # power in blocks as well 2.9x.
    pair = noisy_pair(make_speech_like(seed=5, duration=20.0), 0.0)
    assert _peak_memory(metrics.stoi, pair) < 3.4


def _unblocked_spectra(analysis, rows):
    """The windowed rfft of an analysis's frame rows, all in one call."""
    return np.fft.rfft(analysis.frames[rows] * np.hamming(analysis.frames.shape[1]),
                       analysis.fft_len, axis=1)


def test_frame_blocks_do_not_change_llr_csii_and_stoi(monkeypatch):
    # 1.5 s: 148 frames and 87 stoi segments, so blocks of 7 leave some over;
    # at this SNR the mean of the correlations depends on their layout
    pair = noisy_pair(make_speech_like(seed=5, duration=1.5), 0.0)
    monkeypatch.setattr(dsp, "BLOCK_FRAMES", 10 ** 6)
    analyses = metrics._analyze_pair(pair)
    clean, degraded = analyses.clean, analyses.degraded
    every = np.arange(len(clean.frames))
    power = [np.abs(_unblocked_spectra(a, every)) ** 2 for a in (clean, degraded)]
    energy = np.sum(clean.frames ** 2, axis=1)
    autocorrelation = np.fft.irfft(power[0], clean.fft_len, axis=1)[:, :metrics.LLR_ORDER + 1]
    regions = metrics._csii_regions(energy, clean.frames.shape[1], pair.clean.rms())
    assert all(np.count_nonzero(region) > 7 for region in regions)
    cross = [np.sum(_unblocked_spectra(clean, region) * np.conj(_unblocked_spectra(degraded, region)),
                    axis=0) for region in regions]
    correlations = []
    stoi_correlations = metrics._stoi_correlations
    monkeypatch.setattr(metrics, "_stoi_correlations",
                        lambda *segs: correlations.append(stoi_correlations(*segs)) or correlations[-1])
    csii = metrics._csii(pair, analyses)
    stoi = metrics.stoi(pair)
    (corr,) = correlations  # one block: all the segments at once, as one mean
    assert corr.shape == (metrics.STOI_BANDS, 87)
    assert stoi == float(np.mean(corr))
    for block in (len(clean.frames), 7, 1):
        monkeypatch.setattr(dsp, "BLOCK_FRAMES", block)
        a = metrics._analyze_pair(pair)
        np.testing.assert_array_equal(a.clean.energy, energy)
        np.testing.assert_array_equal(a.clean.power, power[0])
        np.testing.assert_array_equal(a.degraded.power, power[1])
        np.testing.assert_array_equal(metrics._autocorrelation(a.clean), autocorrelation)
        for got, want in zip(a.cross, cross):
            np.testing.assert_array_equal(got, want)
        assert metrics._csii(pair, a) == csii
        assert metrics.stoi(pair) == stoi


def test_frame_blocks_do_not_change_snr_seg_and_wss(monkeypatch):
    # 148 frames, a few of them silent on the degraded side, so wss's valid
    # rows are not all the frames
    pair = noisy_pair(make_speech_like(seed=5, duration=1.5), 0.0)
    degraded = pair.degraded.samples.copy()
    degraded[2000:2800] = 0.0
    pair = AlignedPair(pair.clean, AudioSignal(degraded, RATE), 0, 1.0)
    analyses = metrics._analyze_pair(pair)
    assert not (analyses.degraded.energy > 0.0).all()
    monkeypatch.setattr(dsp, "BLOCK_FRAMES", len(analyses.clean.frames))
    snr, distance = metrics._snr_seg(pair, analyses), metrics._wss(pair, analyses)
    for block in (7, 1):
        monkeypatch.setattr(dsp, "BLOCK_FRAMES", block)
        assert metrics._snr_seg(pair, analyses) == snr
        assert metrics._wss(pair, analyses) == distance


def test_ncm_too_short_errors():
    short = AudioSignal(np.ones(2000), RATE)
    with pytest.raises(PreconditionError):
        metrics.ncm(AlignedPair(short, short, 0, 1.0))


# ---------------------------------------------------------------- stoi

def test_stoi_identity(sweep_identity):
    assert metrics.stoi(sweep_identity) == pytest.approx(1.0, abs=1e-6)


def test_stoi_scale_invariance(sweep):
    base = metrics.stoi(identity_pair(sweep))
    for alpha in (0.5, 2.0):
        pair = AlignedPair(sweep, AudioSignal(alpha * sweep.samples, RATE), 0, 1.0)
        assert metrics.stoi(pair) == pytest.approx(base, abs=1e-9)


def test_stoi_monotone_in_snr(sweep):
    vals = [metrics.stoi(noisy_pair(sweep, snr)) for snr in (20.0, 10.0, 0.0, -10.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_stoi_common_scaling_invariance(sweep):
    pair = noisy_pair(sweep, 5.0)
    base = metrics.stoi(pair)
    for alpha in (0.5, 2.0):
        scaled = AlignedPair(
            AudioSignal(alpha * pair.clean.samples, RATE),
            AudioSignal(alpha * pair.degraded.samples, RATE),
            0, 1.0,
        )
        assert metrics.stoi(scaled) == pytest.approx(base, abs=1e-9)
        assert metrics.ncm(scaled) == pytest.approx(metrics.ncm(pair), abs=1e-9)
        got = metrics.csii(scaled)
        want = metrics.csii(pair)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


def test_stoi_too_short_errors():
    short = AudioSignal(np.ones(3000), RATE)
    with pytest.raises(PreconditionError):
        metrics.stoi(AlignedPair(short, short, 0, 1.0))


# ---------------------------------------------------------------- composite

def test_composite_intercepts():
    assert metrics.composite(0.0, 0.0, 0.0, 0.0) == (3.093, 1.634, 1.594)


def test_composite_linearity_in_pesq():
    c1 = metrics.composite(1.0, 10.0, 5.0, 1.0)
    c2 = metrics.composite(1.0, 10.0, 5.0, 2.0)
    assert c2[2] - c1[2] == pytest.approx(0.805, abs=1e-12)


def test_composite_matches_direct_arithmetic():
    llr_v, wss_v, snr_v, pesq_v = 1.59, 24.6, -0.7, 2.25
    csig = 3.093 - 1.029 * llr_v + 0.603 * pesq_v - 0.009 * wss_v
    got = metrics.composite(llr_v, wss_v, snr_v, pesq_v)
    assert got[0] == pytest.approx(csig, abs=1e-12)
    assert got[0] == pytest.approx(2.59224, abs=1e-9)


def test_composite_rejects_out_of_range_pesq():
    with pytest.raises(PreconditionError):
        metrics.composite(0.0, 0.0, 0.0, 5.0)


# ---------------------------------------------------------------- evaluate_pair

def test_evaluate_pair_identity(sweep_identity):
    rep = metrics.evaluate_pair(sweep_identity)
    assert rep.stoi == pytest.approx(1.0, abs=1e-6)
    assert rep.llr == pytest.approx(0.0, abs=1e-9)
    assert rep.wss == 0.0
    assert rep.snr_seg == 35.0
    assert rep.pesq is None
    assert rep.composite is None


def test_evaluate_pair_composite_gating(sweep_identity):
    rep = metrics.evaluate_pair(sweep_identity, external_pesq=4.5)
    assert rep.pesq == 4.5
    assert rep.composite is not None


def test_evaluate_pair_fields_equal_individual_ops(sweep):
    # steady noise leaves csii's low region empty; the degraded gap makes
    # wss keep a strict subset of the frames, inside the populated regions
    rng = np.random.default_rng(14)
    x = 0.3 * rng.standard_normal(RATE)
    d = x + 0.1 * rng.standard_normal(RATE)
    d[4000:9000] = 0.0
    gapped = AlignedPair(AudioSignal(x, RATE), AudioSignal(d, RATE), 0, 1.0)
    assert not (dsp.frame_analysis(gapped.degraded).energy > 0.0).all()
    assert metrics.csii(gapped)[2] is None
    for pair in (noisy_pair(sweep, 10.0), gapped):
        rep = metrics.evaluate_pair(pair, external_pesq=2.0)
        assert rep.stoi == metrics.stoi(pair)
        assert rep.snr_seg == metrics.snr_seg(pair)
        assert rep.fw_snr_seg == metrics.fw_snr_seg(pair)
        assert rep.llr == metrics.llr(pair)
        assert rep.wss == metrics.wss(pair)
        assert rep.csii == metrics.csii(pair)
        assert rep.ncm == metrics.ncm(pair)
        assert rep.composite == metrics.composite(rep.llr, rep.wss, rep.snr_seg, 2.0)


def test_evaluate_pair_frames_each_side_once(sweep, monkeypatch):
    calls = []
    original = dsp.frame

    def counting(sig, frame_len, hop):
        calls.append((frame_len, hop))
        return original(sig, frame_len, hop)

    monkeypatch.setattr(dsp, "frame", counting)
    metrics.evaluate_pair(noisy_pair(sweep, 10.0), external_pesq=2.0)
    # the two shared 25 ms analyses and stoi's two 10 kHz framings
    assert sorted(calls) == [(256, 128)] * 2 + [(400, 160)] * 2


def test_evaluate_pair_deterministic(sweep):
    pair = noisy_pair(sweep, 0.0)
    a = metrics.evaluate_pair(pair, external_pesq=3.0)
    b = metrics.evaluate_pair(pair, external_pesq=3.0)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_evaluate_pair_selection(sweep_identity):
    rep = metrics.evaluate_pair(sweep_identity, selected=("snr_seg",))
    assert rep.snr_seg == 35.0
    assert np.isnan(rep.stoi)
    assert rep.csii == (None, None, None)


def test_evaluate_pair_composite_alone_selects_its_inputs(sweep):
    pair = noisy_pair(sweep, 10.0)
    alone = metrics.evaluate_pair(pair, 3.0, selected=("composite",))
    full = metrics.evaluate_pair(pair, 3.0)
    assert alone.composite == full.composite
    assert not any(np.isnan(alone.composite))
    assert (alone.llr, alone.wss, alone.snr_seg) == (full.llr, full.wss, full.snr_seg)
    assert np.isnan(alone.stoi)


def test_evaluate_pair_unknown_metric(sweep_identity):
    with pytest.raises(ValueError):
        metrics.evaluate_pair(sweep_identity, selected=("nope",))


def test_evaluate_pair_wraps_errors_with_metric_name():
    silent = AudioSignal(np.zeros(RATE), RATE)
    with pytest.raises(MetricError, match="snr_seg"):
        metrics.evaluate_pair(AlignedPair(silent, silent, 0, 1.0), selected=("snr_seg",))
    short = AudioSignal(np.ones(399), RATE)
    for name in ("wss", "csii"):
        with pytest.raises(MetricError, match=f"^{name}: pair shorter than one analysis frame"):
            metrics.evaluate_pair(AlignedPair(short, short, 0, 1.0), selected=(name,))


def test_evaluate_pair_rejects_a_non_finite_metric(sweep, monkeypatch):
    nan_stoi = ("stoi", lambda pair: float("nan"))
    monkeypatch.setattr(metrics, "_METRIC_OPS", (nan_stoi, *metrics._METRIC_OPS[1:]))
    pair = noisy_pair(sweep, 10.0)
    with pytest.raises(MetricError, match="^stoi: non-finite value nan"):
        metrics.evaluate_pair(pair)
    with pytest.raises(MetricError, match="^stoi: "):
        metrics.evaluate_pair(pair, selected=("stoi",))


@pytest.mark.parametrize("name", metrics.METRIC_NAMES)
@pytest.mark.parametrize("side,index,value", [("degraded", 8000, np.nan), ("clean", 123, -np.inf)])
def test_evaluate_pair_rejects_a_non_finite_sample(sweep, name, side, index, value):
    # each metric but stoi used to return a finite value for such a pair
    pair = noisy_pair(sweep, 10.0)
    samples = getattr(pair, side).samples.copy()
    samples[index] = value
    pair = dataclasses.replace(pair, **{side: AudioSignal(samples, RATE)})
    with pytest.raises(PreconditionError, match=f"^{side} sample {index} is not finite"):
        metrics.evaluate_pair(pair, external_pesq=3.0, selected=(name,))


@pytest.mark.parametrize("name,value,label", [
    ("csii", (0.5, None, float("nan")), "csii_low"),
    ("composite", (3.0, float("inf"), 2.0), "cbak"),
    ("ncm", float("-inf"), "ncm"),
])
def test_require_finite_names_the_component(name, value, label):
    with pytest.raises(MetricError, match=f"^{label}: non-finite value"):
        metrics._require_finite(name, value)


def test_require_finite_passes_empty_csii_regions():
    metrics._require_finite("csii", (None, 0.4, None))
    metrics._require_finite("stoi", 0.9)


# ---------------------------------------------------------------- metrics.csv columns

def test_report_cells_line_up_with_columns():
    rep = metrics.MetricReport(stoi=0.9, snr_seg=12.0, fw_snr_seg=14.0, llr=0.3, wss=20.0,
                               csii=(0.8, None, 0.4), ncm=0.7)
    assert dict(zip(metrics.COLUMNS, rep.cells(), strict=True)) == {
        "stoi": 0.9, "snr_seg": 12.0, "fw_snr_seg": 14.0, "llr": 0.3, "wss": 20.0,
        "csii_high": 0.8, "csii_mid": None, "csii_low": 0.4, "ncm": 0.7,
        "pesq": None, "csig": None, "cbak": None, "covl": None,
    }
    scored = dataclasses.replace(rep, pesq=3.1, composite=(3.5, 2.5, 3.0))
    assert scored.cells()[-4:] == (3.1, 3.5, 2.5, 3.0)  # pesq, csig, cbak, covl


def test_columns_match_the_benchmark_tolerances():
    # perfbench checks every metrics.csv column against its own tolerance table
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert set(checks.METRIC_TOLERANCES) == set(metrics.COLUMNS)
