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
must exist too, so that a removed function is not still documented. So must
the tests README names, and its flags, file headers and tolerance table must
be the parser's, the writers' and ``perfbench/checks.py``'s.
"""
import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import vda
from vda import cli, corpus, dsp, metrics, model
from vda.corpus import ALL_CELLS

from conftest import make_speech_like, noisy_pair

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# ``metrics.csv`` and ``errors.csv`` name files, not module attributes
FILE_SUFFIXES = {"csv", "json", "md"}


def _readme_section(heading: str) -> str:
    """README's text under ``heading`` up to the next heading of its level or
    above; lines inside code fences are never headings."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    level = len(heading) - len(heading.lstrip("#"))
    start = lines.index(heading) + 1
    end, fenced = len(lines), False
    for i in range(start, len(lines)):
        if lines[i].startswith("```"):
            fenced = not fenced
        elif not fenced and re.match(rf"#{{1,{level}}} ", lines[i]):
            end = i
            break
    return "\n".join(lines[start:end])


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


def test_documented_tests_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`(tests/test_\w+\.py)::(test_\w+)`", readme))
    assert len(named) > 10
    missing = {f"{path}::{name}" for path, name in named
               if not re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M)}
    assert not missing


def test_documented_tolerances_are_perfbench_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    section = _readme_section("### Benchmark tolerances")
    rows = [(name, tuple(map(float, tol)))
            for label, *tol in re.findall(r"^\| (.+?) \| (\S+) \| (\S+) \| (\S+) \|$", section, re.M)
            for name in re.findall(r"`([^`]+)`", label)]
    documented = dict(rows)
    assert len(documented) == len(rows)
    assert documented == {**checks.METRIC_TOLERANCES, "e<i>": checks.ERROR_TOLERANCE,
                          "fit_stoi.json": checks.FIT_TOLERANCE,
                          "decomposition_stoi.json": checks.DECOMPOSITION_TOLERANCE}
    (additivity,) = re.findall(r"`ADDITIVITY_RTOL` = ([0-9.e+-]+)", section)
    assert float(additivity) == checks.ADDITIVITY_RTOL


def test_documented_flags_and_headers_match_the_code():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {flag for command in commands.choices.values() for action in command._actions
               if not isinstance(action, argparse._HelpAction) for flag in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*[a-z]", _readme_section("## Command-line pipeline"))) == options
    formats = _readme_section("### File formats")
    headers = re.findall(r"^```\n(.*?)\n```$", formats, re.M | re.S)
    assert headers == [",".join(corpus.MANIFEST_COLUMNS), ",".join(cli.KEY_COLUMNS + corpus.METRIC_COLUMNS)]
    key = ",".join(cli.KEY_COLUMNS)
    spans = {f"{key},{columns[0]}..{columns[-1]}" for columns in (cli.ERROR_COLUMNS, cli.FEATURE_COLUMNS)}
    assert spans <= set(re.findall(r"`([^`\n]+)`", formats))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ranges = re.findall(r"\b([ex])0\.\.\1(\d+)\b", readme)
    assert ranges and all(int(last) == corpus.N_FEATURES - 1 for _, last in ranges)
