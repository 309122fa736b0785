"""Golden model outputs for the seed-7 synthetic corpus.

``tests/golden/seed7`` holds ``metrics.csv`` and ``errors.csv`` of
``vda synth --seed 7`` (16 utterances x 8 cells) and the ``regression_*.csv``
and ``decomposition_*.json`` that ``fit`` and ``decompose`` wrote from them.
The tests rerun both stages on a copy of the frozen inputs: the retained
columns and ``dof`` must be equal, the values equal within the model
tolerance of ``perfbench/checks.py``.
"""
import csv
import json
import shutil
from pathlib import Path

import pytest

from vda.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed7"

# (rtol, atol, scale): |value - ref| <= rtol*|ref| + atol + scale*max|column|,
# FIT_TOLERANCE and DECOMPOSITION_TOLERANCE of perfbench/checks.py.
MODEL_TOLERANCE = (1e-5, 0.0, 1e-7)
REGRESSION_VALUES = ("theta", "std_err", "t", "p")
DECOMPOSITION_PARTS = ("endowment", "coefficient", "interaction", "collective")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _assert_close(values, refs, label):
    rtol, atol, scale = MODEL_TOLERANCE
    column_max = max((abs(r) for r in refs), default=0.0)
    bad = [
        (i, v, r) for i, (v, r) in enumerate(zip(values, refs))
        if not abs(v - r) <= rtol * abs(r) + atol + scale * column_max
    ]
    assert not bad, f"{label}: {len(bad)} value(s) outside {MODEL_TOLERANCE}, first {bad[0]}"


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for name in ("metrics.csv", "errors.csv"):
        shutil.copyfile(GOLDEN / name, out / name)
    for outcome in ("stoi", "pesq"):
        assert main(["fit", "--out", str(out), "--outcome", outcome]) == EXIT_OK
        assert main(["decompose", "--out", str(out), "--outcome", outcome]) == EXIT_OK
    return out


@pytest.mark.parametrize("outcome", ["stoi", "pesq"])
def test_golden_regression(golden_run, outcome):
    got = _read_csv(golden_run / f"regression_{outcome}.csv")
    ref = _read_csv(GOLDEN / f"regression_{outcome}.csv")
    key = ("feature_index", "interaction_label")
    assert [tuple(r[k] for k in key) for r in got] == [tuple(r[k] for k in key) for r in ref]
    retained = [r["theta"] != "" for r in ref]
    assert [r["theta"] != "" for r in got] == retained
    n_rows = len(_read_csv(GOLDEN / "metrics.csv"))
    dof = json.loads((golden_run / f"fit_{outcome}.json").read_text(encoding="utf-8"))["dof"]
    assert dof == n_rows - sum(retained)
    for col in REGRESSION_VALUES:
        kept = [(g, r) for g, r, k in zip(got, ref, retained) if k and r[col] != ""]
        assert all(g[col] != "" for g, _ in kept), f"{outcome} {col}: blank where the golden run has a value"
        _assert_close([float(g[col]) for g, _ in kept], [float(r[col]) for _, r in kept],
                      f"regression_{outcome}.csv {col}")


@pytest.mark.parametrize("outcome", ["stoi", "pesq"])
def test_golden_decomposition(golden_run, outcome):
    got = json.loads((golden_run / f"decomposition_{outcome}.json").read_text(encoding="utf-8"))
    ref = json.loads((GOLDEN / f"decomposition_{outcome}.json").read_text(encoding="utf-8"))
    assert (got["outcome"], got["reference"]) == (ref["outcome"], ref["reference"])
    labels = ("indicator", "G", "C", "D")
    assert [[r[k] for k in labels] for r in got["rows"]] == [[r[k] for k in labels] for r in ref["rows"]]
    for part in DECOMPOSITION_PARTS:
        _assert_close([r[part] for r in got["rows"]], [r[part] for r in ref["rows"]],
                      f"decomposition_{outcome}.json {part}")
