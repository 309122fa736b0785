import time
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from vda.cli import EXIT_OK, main
from vda.corpus import AlignedPair, AudioSignal

RATE = 16000


def make_tone(freq_hz=440.0, duration=1.0, rate=RATE, amplitude=0.5):
    t = np.arange(int(duration * rate)) / rate
    return AudioSignal(amplitude * np.sin(2.0 * np.pi * freq_hz * t), rate)


def make_vowel(pole_freqs=(700.0, 1220.0, 2600.0), bandwidths=(80.0, 90.0, 120.0),
               f0=100.0, duration=1.0, rate=RATE):
    """Impulse train through cascaded two-pole resonators at the given poles."""
    n = int(duration * rate)
    src = np.zeros(n)
    src[:: int(round(rate / f0))] = 1.0
    x = src
    for f, bw in zip(pole_freqs, bandwidths):
        r = np.exp(-np.pi * bw / rate)
        theta = 2.0 * np.pi * f / rate
        x = lfilter([1.0 - r], [1.0, -2.0 * r * np.cos(theta), r * r], x)
    x = 0.3 * x / np.max(np.abs(x))
    return AudioSignal(x, rate)


def make_speech_like(seed=7, duration=1.0, rate=RATE, level_sweep_db=26.0):
    """Voiced utterance whose level sweeps down ``level_sweep_db`` over its
    length, so every frame-level region is populated."""
    from vda.synth import voiced_utterance

    sig = voiced_utterance(np.random.default_rng(seed), duration)
    t = np.arange(len(sig.samples)) / rate
    env = 10.0 ** (-level_sweep_db * t / t[-1] / 20.0)
    return AudioSignal(sig.samples * env, rate)


def peak_memory(op, *args):
    """op(*args) and the tracemalloc peak, in bytes, of what it allocated."""
    tracemalloc.start()
    try:
        return op(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def identity_pair(sig):
    return AlignedPair(sig, sig, 0, 1.0)


def noisy_pair(sig, snr_db, seed=11):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(len(sig.samples))
    noise /= np.sqrt(np.mean(noise ** 2))
    scale = np.sqrt(np.mean(sig.samples ** 2)) * 10.0 ** (-snr_db / 20.0)
    return AlignedPair(sig, AudioSignal(sig.samples + scale * noise, sig.rate), 0, 1.0)


@pytest.fixture(scope="session")
def speech_like():
    return make_speech_like()


@pytest.fixture(scope="session")
def vowel():
    return make_vowel()


@pytest.fixture(scope="session")
def tone440():
    return make_tone()


def run_seed7_pipeline(root):
    """Every stage on ``vda synth --seed 7`` under ``root``: the --out
    directory and the wall seconds the whole run took."""
    start = time.perf_counter()
    out = root / "out"
    manifest = str(root / "manifest.csv")
    assert main(["synth", "--out", str(root), "--seed", "7"]) == EXIT_OK
    assert main(["validate", "--manifest", manifest]) == EXIT_OK
    assert main(["metrics", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    assert main(["features", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert main(["decompose", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert main(["report", "--out", str(out)]) == EXIT_OK
    return out, time.perf_counter() - start


@pytest.fixture(scope="session")
def seed7_run(tmp_path_factory):
    """One run_seed7_pipeline per pytest run, which the golden audio tests
    read and acceptance criterion 9 reruns; tests must not write into it."""
    return run_seed7_pipeline(tmp_path_factory.mktemp("seed7"))
