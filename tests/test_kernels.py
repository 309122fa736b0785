import numpy as np
import pytest

from vda import dsp, kernels


def _toeplitz_solve(r):
    """Normal-equations oracle for one autocorrelation row."""
    p = len(r) - 1
    toe = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            toe[i, j] = r[abs(i - j)]
    a_tail = -np.linalg.solve(toe, r[1:])
    err = r[0] + np.dot(a_tail, r[1:])
    return np.concatenate([[1.0], a_tail]), err


def _random_acf_rows(seed, n_rows=12, frame_len=512, order=10):
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n_rows, frame_len))
    return dsp.autocorrelate(frames, order)


def test_levinson_matches_toeplitz_oracle():
    r = _random_acf_rows(0)
    a, err = kernels.levinson_batch(r)
    for i in range(len(r)):
        a_ref, err_ref = _toeplitz_solve(r[i])
        np.testing.assert_allclose(a[i], a_ref, atol=1e-8)
        assert err[i] == pytest.approx(err_ref, rel=1e-8)
        assert err[i] >= 0.0


def test_levinson_rejects_bad_shape():
    with pytest.raises(ValueError):
        kernels.levinson_batch(np.ones(5))


def test_mark_periods_on_pulse_train():
    period = 100
    x = np.zeros(2000)
    x[50::period] = 1.0
    peaks = kernels.mark_periods(x, 650, float(period))
    expected = np.arange(50, 2000, period)
    np.testing.assert_array_equal(peaks, expected)


def test_mark_periods_tolerates_period_wobble():
    rng = np.random.default_rng(2)
    positions = [40]
    while positions[-1] < 3000:
        positions.append(positions[-1] + int(90 + rng.integers(0, 20)))
    positions = [p for p in positions if p < 3000]
    x = rng.normal(0, 0.01, 3000)
    for p in positions:
        x[p] = 1.0
    anchor = positions[len(positions) // 2]
    peaks = kernels.mark_periods(x, anchor, 100.0)
    np.testing.assert_array_equal(peaks, positions)


def test_mark_periods_on_monotone_decrease():
    # every peak lands at the start of its window: 1.4 periods back from the
    # previous peak going backward, 0.7 periods on going forward
    x = np.linspace(1.0, 0.0, 1000)
    peaks = kernels.mark_periods(x, 500, 100.0)
    expected = np.concatenate([np.arange(80, 500, 140), np.arange(500, 930, 70)])
    np.testing.assert_array_equal(peaks, expected)


@pytest.mark.parametrize("kind", ["random", "ties", "two_bands"])
def test_local_peak_values_matches_bruteforce(kind):
    rng = np.random.default_rng(3)
    if kind == "random":
        bands = rng.standard_normal((15, 36))
    elif kind == "ties":
        bands = rng.integers(0, 3, (15, 36)).astype(np.float64)
    else:
        bands = rng.standard_normal((15, 2))
    got = kernels.local_peak_values(bands)
    for t in range(bands.shape[0]):
        for k in range(bands.shape[1] - 1):
            if bands[t, k + 1] > bands[t, k]:
                j = k
                while j < bands.shape[1] - 1 and bands[t, j + 1] > bands[t, j]:
                    j += 1
            else:
                j = k
                while j > 0 and bands[t, j - 1] >= bands[t, j]:
                    j -= 1
            assert got[t, k] == bands[t, j]


def test_backend_name_reports():
    assert kernels.backend_name() == "numpy"
