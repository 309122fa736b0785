"""The vda names the benchmark tracer wraps must exist.

``perfbench/tracer.py`` replaces the functions it names with timing
wrappers and records a name it cannot find as "not found", so a renamed
function silently reads 0 in every benchmark run.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    named = [(layer, name) for layer, names in tracer.LAYER_FUNCTIONS.items() for name in names]
    named += [("cli", name) for name in tracer.ROW_FUNCTIONS]
    missing = {f"{layer}.{name}" for layer, name in named
               if not hasattr(importlib.import_module(f"vda.{layer}"), name)}
    # dsp.power_spectra was folded into dsp.frame_analysis; the tracer still lists it
    assert missing == {"dsp.power_spectra"}
