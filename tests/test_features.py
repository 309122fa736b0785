import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vda import dsp, features
from vda.corpus import AudioSignal
from vda.errors import PreconditionError
from vda.features import ErrorVector, FeatureVector, extract_features, feature_error

from conftest import make_tone, make_vowel

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


def _hammarberg_reference(sig):
    """x[3] with the per-frame peak search the feature code used before it
    took the band maxima over the whole frame matrix at once."""
    frame_len, hop = dsp.default_frame_params(sig.rate)
    fft_len = dsp.next_pow2(frame_len)
    frames = dsp.frame(sig, frame_len, hop).frames
    pitch_len = int(round(features.PITCH_FRAME_SECONDS * sig.rate))
    n_common = min(len(frames), len(dsp.frame(sig, pitch_len, hop).frames))
    spec = np.fft.rfft(frames * np.hamming(frame_len), fft_len, axis=1)
    mags = np.sqrt(np.abs(spec) ** 2)[:n_common]
    freqs = np.arange(mags.shape[1]) * (sig.rate / fft_len)
    p_lo = np.array([features._band_peak(m, freqs, 0.0, 2000.0) for m in mags])
    p_hi = np.array([features._band_peak(m, freqs, 2000.0, 5000.0) for m in mags])
    both = (p_lo > 0.0) & (p_hi > 0.0)
    hamm = np.zeros(len(mags))
    hamm[both] = 20.0 * np.log10(p_lo[both] / p_hi[both])
    return features._masked_mean(hamm, both)


def test_hammarberg_matches_per_frame_reference(vowel, tone440):
    rng = np.random.default_rng(9)
    gapped = vowel.samples.copy()
    gapped[4000:9000] = 0.0  # silent frames in the middle
    signals = [
        vowel,
        tone440,
        AudioSignal(gapped, RATE),
        AudioSignal(np.zeros(RATE), RATE),
        AudioSignal(0.1 * rng.standard_normal(RATE), RATE),
        AudioSignal(0.1 * rng.standard_normal(8000), 8000),  # 2-5 kHz band cut at Nyquist
        AudioSignal(0.1 * rng.standard_normal(48000), 48000),
    ]
    for sig in signals:
        assert extract_features(sig).x[3] == _hammarberg_reference(sig)


def test_mfcc_basis_matches_scipy_dct():
    from scipy.fft import dct

    ref = dct(np.eye(features.N_AUDITORY_BANDS), type=2, norm="ortho", axis=1)[:, 1:5]
    np.testing.assert_allclose(features._MFCC_BASIS, ref, rtol=0.0, atol=1e-12)
    log_mel = np.log(np.random.default_rng(2).uniform(1e-6, 10.0, (50, features.N_AUDITORY_BANDS)))
    np.testing.assert_allclose(log_mel @ features._MFCC_BASIS,
                               dct(log_mel, type=2, norm="ortho", axis=1)[:, 1:5],
                               rtol=0.0, atol=1e-12)
