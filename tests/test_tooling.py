"""The vda names the benchmark tracer wraps and probes must exist and agree.

``perfbench/tracer.py`` replaces the functions it names with timing
wrappers and records a name it cannot find as "not found", so a renamed
function silently reads 0 in every benchmark run. It also probes each of
its PROBED_METRICS by calling ``metrics.<name>(pair)`` alone and compares
the value with evaluate_pair's, and counts a ROW_COUNTED call's rows as
``len()`` of its first argument.

``perfbench/run.py``'s environment probe calls ``kernels.backend_name()``
on every run, so a refactor that removes it fails every benchmark run: that
name must exist as well.

The names that README.md and the docstrings of ``src/vda`` put in backticks
must exist too, so that a removed function is not still documented.
"""
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vda
from vda import dsp, metrics, model
from vda.corpus import ALL_CELLS

from conftest import make_speech_like, noisy_pair

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# ``metrics.csv`` and ``errors.csv`` name files, not module attributes
FILE_SUFFIXES = {"csv", "json", "md"}


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    named = [(layer, name) for layer, names in tracer.LAYER_FUNCTIONS.items() for name in names]
    named += [("cli", name) for name in tracer.ROW_FUNCTIONS]
    named += [("kernels", "backend_name")]  # run.py's environment probe calls it
    missing = {f"{layer}.{name}" for layer, name in named
               if not hasattr(importlib.import_module(f"vda.{layer}"), name)}
    # dsp.power_spectra was folded into dsp.frame_analysis; the tracer still lists it
    assert missing == {"dsp.power_spectra"}


@pytest.mark.parametrize("duration", [1.0, 3.0])
def test_probed_metrics_called_alone_give_evaluate_pairs_bits(monkeypatch, duration):
    # 3 s is 298 frames, more than two blocks; repr is exact for a float, so
    # equal reprs are equal bits. The frame metrics give the same bits from
    # an analysis passed in as from the one they build.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    pair = noisy_pair(make_speech_like(seed=5, duration=duration), 5.0)
    analysis = metrics.analyze_pair(pair)
    assert duration < 2.0 or len(analysis.clean.frames) > 2 * dsp.BLOCK_FRAMES
    report = metrics.evaluate_pair(pair)
    for name in tracer.PROBED_METRICS:
        assert repr(getattr(metrics, name)(pair)) == repr(getattr(report, name)), name
    for name in ("snr_seg", "fw_snr_seg", "llr", "wss", "csii"):
        assert repr(getattr(metrics, name)(pair, analysis)) == repr(getattr(report, name)), name


def test_documented_names_resolve():
    modules = [m.name for m in pkgutil.iter_modules(vda.__path__)]
    backticked = re.compile(r"`(?:vda\.)?(" + "|".join(modules) + r")\.([A-Za-z_]\w*)")
    docs = [ROOT / "README.md", *sorted((ROOT / "src" / "vda").glob("*.py"))]
    named = {(path.name, module, name) for path in docs
             for module, name in backticked.findall(path.read_text(encoding="utf-8"))
             if name not in FILE_SUFFIXES}
    assert len(named) > 10
    missing = {f"{doc}: {module}.{name}" for doc, module, name in named
               if not hasattr(importlib.import_module(f"vda.{module}"), name)}
    assert not missing


def test_row_counted_observations_give_their_row_count(monkeypatch):
    # the tracer records model.rows as len(args[0]) of ROW_COUNTED calls such
    # as decomposition_table(obs), so Observations' len() must be its rows
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert "model.decomposition_table" in importlib.import_module("tracer").ROW_COUNTED
    y = np.arange(5.0)
    labels = np.array([cell.as_tuple() for cell in ALL_CELLS[:5]])
    assert len(model.Observations(np.ones((5, 26)), labels, y)) == len(y)
