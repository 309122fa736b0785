import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vda import dsp, features, kernels
from vda.corpus import AudioSignal
from vda.errors import PreconditionError
from vda.features import (ErrorVector, FeatureVector, extract_features, feature_error, frame_terms,
                          utterance_means)

from conftest import make_speech_like, make_tone, make_vowel, peak_memory

RATE = 16000


def test_tone_f0_semitone(tone440):
    fv = extract_features(tone440)
    assert fv.x[11] == pytest.approx(48.0, abs=0.1)  # 440/27.5 = 2^4


def test_tone_jitter_shimmer(tone440):
    fv = extract_features(tone440)
    assert fv.x[12] < 1e-3
    assert fv.x[13] < 1e-2


def test_vowel_formants_near_synthesis_poles(vowel):
    fv = extract_features(vowel)
    assert fv.x[17] == pytest.approx(700.0, abs=50.0)
    assert fv.x[20] == pytest.approx(1220.0, abs=50.0)
    assert fv.x[23] == pytest.approx(2600.0, abs=50.0)
    assert fv.x[18] > 0 and fv.x[21] > 0 and fv.x[24] > 0  # bandwidths


def test_vowel_is_voiced_and_finite(vowel):
    fv = extract_features(vowel)
    assert fv.voiced
    assert np.all(np.isfinite(fv.x))
    assert fv.x[0] == 1.0


def test_intercept_always_one(tone440, vowel):
    for sig in (tone440, vowel):
        assert extract_features(sig).x[0] == 1.0


def test_deterministic_bitwise(vowel):
    a = extract_features(vowel)
    b = extract_features(vowel)
    np.testing.assert_array_equal(a.x, b.x)


def test_scale_check(vowel):
    base = extract_features(vowel)
    scaled = extract_features(AudioSignal(2.0 * vowel.samples, RATE))  # +6.02 dB
    np.testing.assert_allclose(scaled.x[2:6], base.x[2:6], atol=1e-6)
    assert scaled.x[1] > base.x[1]  # loudness strictly up


def test_unvoiced_signal_zeroes_voicing_features():
    rng = np.random.default_rng(3)
    noise = AudioSignal(0.1 * rng.standard_normal(RATE), RATE)
    fv = extract_features(noise)
    assert not fv.voiced
    assert np.all(fv.x[11:] == 0.0)
    assert np.all(np.isfinite(fv.x))


def test_too_short_input_errors():
    with pytest.raises(PreconditionError):
        extract_features(AudioSignal(np.zeros(800), RATE))


def test_feature_error_identity(vowel):
    fv = extract_features(vowel)
    err = feature_error(fv, fv)
    assert err.e[0] == 1.0
    assert np.all(err.e[1:] == 0.0)


def test_feature_error_absolute_difference():
    a = np.zeros(26)
    a[0] = 1.0
    b = a.copy()
    a[1], b[1] = 2.0, -1.5
    err = feature_error(FeatureVector(a), FeatureVector(b))
    assert err.e[1] == pytest.approx(3.5)


def test_feature_error_matches_elementwise_oracle():
    rng = np.random.default_rng(4)
    a = np.concatenate([[1.0], rng.uniform(-5, 5, 25)])
    b = np.concatenate([[1.0], rng.uniform(-5, 5, 25)])
    err = feature_error(FeatureVector(a), FeatureVector(b))
    for i in range(26):
        expected = 1.0 if i == 0 else abs(a[i] - b[i])
        assert err.e[i] == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=25, max_size=25),
       st.lists(st.floats(-100, 100, allow_nan=False), min_size=25, max_size=25))
def test_feature_error_symmetric_nonnegative(tail_a, tail_b):
    fa = FeatureVector(np.concatenate([[1.0], tail_a]))
    fb = FeatureVector(np.concatenate([[1.0], tail_b]))
    ab = feature_error(fa, fb)
    ba = feature_error(fb, fa)
    np.testing.assert_array_equal(ab.e, ba.e)
    assert np.all(ab.e >= 0.0)
    assert ab.e[0] == 1.0


def test_feature_vector_validation():
    bad = np.zeros(26)
    with pytest.raises(ValueError):
        FeatureVector(bad)  # intercept not 1
    with pytest.raises(ValueError):
        ErrorVector(np.concatenate([[1.0], np.full(25, -1.0)]))
    with pytest.raises(ValueError):
        FeatureVector(np.ones(25))


def test_different_tones_differ_in_f0_feature():
    low = extract_features(make_tone(220.0))
    high = extract_features(make_tone(880.0))
    assert high.x[11] - low.x[11] == pytest.approx(24.0, abs=0.2)  # two octaves


def test_vowel_feature_error_sensitive_to_formant_shift():
    base = extract_features(make_vowel())
    shifted = extract_features(make_vowel(pole_freqs=(800.0, 1400.0, 2600.0)))
    err = feature_error(base, shifted)
    assert err.e[17] > 50.0  # F1 moved by ~100 Hz
    assert err.e[20] > 100.0  # F2 moved by ~180 Hz


def _band_peak(mags_row, freqs, lo, hi):
    sel = (freqs >= lo) & (freqs <= hi)
    if not np.any(sel):
        return 0.0
    return float(np.max(mags_row[sel]))


def _formants_from_lpc(a, rate):
    roots = np.roots(a)
    roots = roots[np.imag(roots) > 0.0]
    if len(roots) == 0:
        return []
    freq = np.angle(roots) * rate / (2.0 * np.pi)
    bw = -(rate / np.pi) * np.log(np.maximum(np.abs(roots), features._TINY))
    keep = ((freq > 90.0) & (freq < rate / 2.0 - 90.0) & (bw > 0.0)
            & (bw < features.FORMANT_MAX_BANDWIDTH))
    return [(float(f), float(b)) for f, b in sorted(zip(freq[keep], bw[keep]))]


def _reference_frames(sig):
    """Frames, magnitude spectra, bin frequencies and F0 track as
    ``extract_features`` aligns them, with the spectrum taken inline."""
    frame_len, hop = dsp.default_frame_params(sig.rate)
    fft_len = dsp.next_pow2(frame_len)
    frames = dsp.frame(sig, frame_len, hop)
    pitch_len = int(round(features.PITCH_FRAME_SECONDS * sig.rate))
    pitch_frames = dsp.frame(sig, pitch_len, hop)
    f0_track, _ = dsp.acf_pitch_track(pitch_frames, sig.rate, features.PITCH_FMIN,
                                      features.PITCH_FMAX)
    n_common = min(len(frames), len(pitch_frames))
    spec = np.fft.rfft(frames * np.hamming(frame_len), fft_len, axis=1)
    mags = np.sqrt(np.abs(spec) ** 2)[:n_common]
    freqs = np.arange(mags.shape[1]) * (sig.rate / fft_len)
    return frames[:n_common], mags, freqs, f0_track[:n_common]


def _hammarberg_reference(sig):
    """x[3] with the per-frame peak search the feature code used before it
    took the band maxima over the whole frame matrix at once."""
    _, mags, freqs, _ = _reference_frames(sig)
    p_lo = np.array([_band_peak(m, freqs, 0.0, 2000.0) for m in mags])
    p_hi = np.array([_band_peak(m, freqs, 2000.0, 5000.0) for m in mags])
    both = (p_lo > 0.0) & (p_hi > 0.0)
    hamm = np.zeros(len(mags))
    hamm[both] = 20.0 * np.log10(p_lo[both] / p_hi[both])
    return features._masked_mean(hamm, both)


def _harmonic_and_formant_reference(sig):
    """x[15:26] with the per-frame loop (one ``np.roots`` and three to five
    band peaks per voiced frame) the feature code used before it batched
    the voiced frames."""
    frames, mags, freqs, f0_track = _reference_frames(sig)
    voiced_idx = np.flatnonzero(np.isfinite(f0_track))
    if len(voiced_idx) == 0:
        return np.zeros(11)
    pre = frames[voiced_idx].copy()
    pre[:, 1:] -= features.PREEMPHASIS * frames[voiced_idx][:, :-1]
    a_rows, lpc_valid = dsp.lpc(dsp.autocorrelate(pre * np.hamming(frames.shape[1]),
                                                  features.FORMANT_LPC_ORDER))
    h1h2_vals, h1a3_vals, formant_rows = [], [], []
    for j, t in enumerate(voiced_idx):
        f0 = f0_track[t]
        half = max(0.25 * f0, 2.0 * freqs[1])
        h1 = _band_peak(mags[t], freqs, f0 - half, f0 + half)
        h2 = _band_peak(mags[t], freqs, 2.0 * f0 - half, 2.0 * f0 + half)
        if h1 > 0.0 and h2 > 0.0:
            h1h2_vals.append(20.0 * np.log10(h1 / h2))
        if not lpc_valid[j]:
            continue
        formants = _formants_from_lpc(a_rows[j], sig.rate)
        if len(formants) < 3:
            continue
        row = np.zeros(9)
        for k in range(3):
            f_k, bw_k = formants[k]
            row[3 * k], row[3 * k + 1] = f_k, bw_k
            target = max(1, int(round(f_k / f0))) * f0
            amp = _band_peak(mags[t], freqs, target - half, target + half)
            if amp > 0.0 and h1 > 0.0:
                row[3 * k + 2] = 20.0 * np.log10(amp / h1)
        formant_rows.append(row)
        if amp > 0.0 and h1 > 0.0:
            h1a3_vals.append(20.0 * np.log10(h1 / amp))
    h1h2 = float(np.mean(h1h2_vals)) if h1h2_vals else 0.0
    h1a3 = float(np.mean(h1a3_vals)) if h1a3_vals else 0.0
    stats = np.mean(formant_rows, axis=0) if formant_rows else np.zeros(9)
    return np.concatenate([[h1h2, h1a3], stats])


def _reference_signals(vowel, tone440, speech_like):
    rng = np.random.default_rng(9)
    gapped = vowel.samples.copy()
    gapped[4000:9000] = 0.0  # silent frames in the middle
    return [
        vowel,
        tone440,
        AudioSignal(gapped, RATE),
        speech_like,
        make_vowel(rate=8000),
        make_vowel(rate=48000),
        AudioSignal(np.zeros(RATE), RATE),
        AudioSignal(0.1 * rng.standard_normal(RATE), RATE),
        AudioSignal(0.1 * rng.standard_normal(8000), 8000),  # 2-5 kHz band cut at Nyquist
        AudioSignal(0.1 * rng.standard_normal(48000), 48000),
    ]


def test_hammarberg_matches_per_frame_reference(vowel, tone440, speech_like):
    for sig in _reference_signals(vowel, tone440, speech_like):
        assert extract_features(sig).x[3] == _hammarberg_reference(sig)


def test_harmonic_and_formant_features_match_per_frame_reference(vowel, tone440, speech_like):
    for sig in _reference_signals(vowel, tone440, speech_like):
        np.testing.assert_array_equal(extract_features(sig).x[15:26],
                                      _harmonic_and_formant_reference(sig))


def test_formants_of_collapsed_levinson_rows_match_np_roots(vowel):
    rate = RATE
    frame_len = dsp.default_frame_params(rate)[0]
    r_vowel = dsp.autocorrelate(vowel.samples[None, 4000:4000 + frame_len] * np.hamming(frame_len),
                                features.FORMANT_LPC_ORDER)[0]
    # keep r[0..6] of the vowel and push r[7] past the order-7 bound, so the
    # recursion stops there and a[8:] stays zero
    a6, e6 = kernels.levinson_batch(r_vowel[None, :7])
    past_bound = r_vowel.copy()
    past_bound[7] = 2.0 * e6[0] - a6[0, 1:] @ r_vowel[6:0:-1]
    r = np.vstack([np.ones(features.FORMANT_LPC_ORDER + 1), past_bound, r_vowel])
    a, err = kernels.levinson_batch(r)
    assert np.all(err[:2] == 0.0) and np.all(a[:2, 8:] == 0.0)
    freq, bw = features._formants(a, rate)
    for j in range(len(a)):
        reference = _formants_from_lpc(a[j], rate)
        if len(reference) < 3:
            assert np.all(np.isnan(freq[j])) and np.all(np.isnan(bw[j]))
        else:
            assert [tuple(p) for p in zip(freq[j], bw[j])] == reference[:3]
    assert not np.isnan(freq[2]).any()  # the intact vowel row has its formants


def _longest_run_reference(voiced):
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
    return best_start, best_len


def test_voiced_run_jitter_shimmer_takes_first_longest_run(speech_like):
    rng = np.random.default_rng(5)
    hop, pitch_len = 160, 640
    n_frames = (len(speech_like.samples) - pitch_len) // hop + 1
    f0_track = np.full(n_frames, 120.0)
    masks = [rng.random(n_frames) < p for p in (0.3, 0.6, 0.9, 1.0)]
    masks.append(np.arange(n_frames) % 10 < 4)  # equal runs: the first wins
    for voiced in masks:
        start, length = _longest_run_reference(voiced)
        stop = min((start + length - 1) * hop + pitch_len, len(speech_like.samples))
        expected = ((0.0, 0.0) if length < 2 else
                    features._jitter_shimmer(speech_like.samples[start * hop:stop], RATE, 120.0))
        assert features._voiced_run_jitter_shimmer(speech_like, voiced, f0_track, hop,
                                                   pitch_len) == expected


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=100, deadline=None)
@given(half=st.integers(1, 30), data=st.data())
def test_median_is_numpy_median(parity, half, data):
    n = 2 * half - 1 + parity  # odd lengths from 1, even from 2
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    got, want = features._median(values), np.median(values)
    # bitwise, but for the sign of a zero: sorting and partitioning may place
    # 0.0 and -0.0 in either order
    assert got == want
    assert got == 0.0 or np.float64(got).tobytes() == np.float64(want).tobytes()


def test_mfcc_basis_matches_scipy_dct():
    from scipy.fft import dct

    ref = dct(np.eye(features.N_AUDITORY_BANDS), type=2, norm="ortho", axis=1)[:, 1:5]
    np.testing.assert_allclose(features._MFCC_BASIS, ref, rtol=0.0, atol=1e-12)
    log_mel = np.log(np.random.default_rng(2).uniform(1e-6, 10.0, (50, features.N_AUDITORY_BANDS)))
    np.testing.assert_allclose(log_mel @ features._MFCC_BASIS,
                               dct(log_mel, type=2, norm="ortho", axis=1)[:, 1:5],
                               rtol=0.0, atol=1e-12)


def _prefix_sources():
    rng = np.random.default_rng(12)
    return [make_speech_like(seed=5, duration=2.0), AudioSignal(0.1 * rng.standard_normal(2 * RATE), RATE)]


@pytest.mark.parametrize("start", [0, 1, 159, 160, 4000])
def test_means_of_shared_frame_terms_equal_the_crop_features(start):
    # the features stage takes each clean crop's means from the frame terms
    # of its reference from the crop's start on; every entry, the flux
    # included, has the bits of the crop's own extraction. The crop lengths
    # give frame counts on both sides of a BLAS row group of 4.
    lengths = [int(features.MIN_DURATION_SECONDS * RATE), 1601, 1759, 1920, 2080, 9000, 12000]
    voicing = []
    for source in _prefix_sources():
        tail = AudioSignal(source.samples[start:], RATE)
        terms = frame_terms(tail)
        for n in lengths + [len(tail)]:
            crop = AudioSignal(source.samples[start:start + n], RATE)
            shared, own = utterance_means(terms, crop), extract_features(crop)
            np.testing.assert_array_equal(shared.x, own.x, err_msg=f"{n} samples")
            assert shared.voiced == own.voiced
            voicing.append(own.voiced)
    assert any(voicing) and not all(voicing)


def test_flux_is_the_mean_squared_step_of_the_magnitudes(vowel, tone440, speech_like):
    # x6 is now the mean of the per-frame row means, not one mean over the
    # (frames - 1, bins) step matrix: the two agree to 1e-13 relative
    for sig in _reference_signals(vowel, tone440, speech_like):
        _, mags, _, _ = _reference_frames(sig)
        expected = float(np.mean((mags[1:] - mags[:-1]) ** 2)) if len(mags) >= 2 else 0.0
        assert extract_features(sig).x[6] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_means_refuse_terms_of_a_shorter_signal(speech_like):
    terms = frame_terms(AudioSignal(speech_like.samples[:RATE // 2], RATE))
    with pytest.raises(ValueError, match="frame terms hold"):
        utterance_means(terms, speech_like)
    with pytest.raises(PreconditionError):
        utterance_means(terms, AudioSignal(speech_like.samples[:800], RATE))


def test_frame_terms_are_small_beside_the_samples():
    # the shared terms keep no spectra: about 0.08x the sample bytes per
    # frame, plus 0.07x for each voiced one
    t = np.arange(20 * RATE) / RATE
    tone = AudioSignal(sum(0.3 / k * np.sin(2.0 * np.pi * 150.0 * k * t) for k in range(1, 9)),
                       RATE)
    for sig in (make_speech_like(seed=5, duration=20.0), tone):
        terms = frame_terms(sig)
        size = sum(array.nbytes for array in terms)
        assert size < 0.25 * sig.samples.nbytes


def test_extract_features_peak_memory_is_bounded():
    # The frames are views of the samples and every frame term is taken in
    # blocks of frames, so one side's peak is a small multiple of its sample
    # bytes, on speech and on a fully voiced tone; the former routes'
    # multiples are in CHANGES.md lines 45, 48, 54 and 61.
    t = np.arange(20 * RATE) / RATE
    tone = AudioSignal(sum(0.3 / k * np.sin(2.0 * np.pi * 150.0 * k * t) for k in range(1, 9)),
                       RATE)
    for sig in (make_speech_like(seed=5, duration=20.0), tone):
        _, peak = peak_memory(extract_features, sig)
        assert peak < 4.0 * sig.samples.nbytes
