"""Golden outputs for the seed-7 synthetic corpus.

``tests/golden/seed7`` holds ``metrics.csv`` and ``errors.csv`` of
``vda synth --seed 7`` (16 utterances x 8 cells) and the ``regression_*.csv``
and ``decomposition_*.json`` that ``fit`` and ``decompose`` wrote from them.
The audio tests read the tables of the one seed-7 pipeline run of a pytest
run (``seed7_run`` in ``conftest.py``) and compare them with the frozen
ones column by column; the model tests rerun ``fit`` and
``decompose`` on a copy of the frozen tables: the retained columns and
``dof`` must be equal. Every tolerance is the one ``perfbench/checks.py``
states for the same column. ``comparison.{csv,json,md}`` are what ``report``
wrote from the frozen ``metrics.csv`` and the variant ``_shifted_variant``
makes of it; the report test asserts the same bytes.

The long-pair tests score two 20 s pairs of
``vda synth --seed 7 --utterances 2 --duration 20``, utt000 in cell G0C0D0
and utt001 in cell G0C0D1, whose WAVs are those of perfbench's
long-utterance input at seed 7, and compare them with their rows of
``perfbench/reference/long-utterance/seed7.json`` at the same tolerances.
A 20 s pair runs ncm on polyphase rows (p = 5) and the frame metrics, stoi
and the pitch track over several blocks of frames, which 1 s pairs do not.
The first pair's ncm is 1.0, at saturation; the second's is 0.78.
"""
import csv
import json
import shutil
from pathlib import Path

import pytest

from vda.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed7"
LONG_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
                  / "long-utterance" / "seed7.json")
LONG_PAIRS = ("utt000/000", "utt001/001")  # utterance/GCD, the reference's keys

# (rtol, atol, scale): |value - ref| <= rtol*|ref| + atol + scale*max|column|,
# FIT_TOLERANCE and DECOMPOSITION_TOLERANCE of perfbench/checks.py.
MODEL_TOLERANCE = (1e-5, 0.0, 1e-7)
# (rtol, atol) of METRIC_TOLERANCES and ERROR_TOLERANCE of perfbench/checks.py;
# ncm is compared in absolute terms, pesq (copied from the manifest) exactly.
AUDIO_TOLERANCE = (1e-6, 1e-9)
AUDIO_TOLERANCES = {"ncm": (0.0, 1e-4), "pesq": (0.0, 0.0)}
KEY_COLUMNS = ("utterance_id", "G", "C", "D")
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


def _key(row):
    """A metrics.csv, errors.csv or manifest row's key as the long-utterance references write it."""
    return f"{row['utterance_id']}/{row['G']}{row['C']}{row['D']}"


def _assert_audio_close(cells, refs, table, col):
    """CSV cells against reference values, None for a blank cell, at the
    column's audio tolerance."""
    rtol, atol = AUDIO_TOLERANCES.get(col, AUDIO_TOLERANCE)
    assert [c == "" for c in cells] == [r is None for r in refs], f"{table} {col}: blank cells differ"
    bad = [
        (i, c, r) for i, (c, r) in enumerate(zip(cells, refs))
        if r is not None and not abs(float(c) - r) <= rtol * abs(r) + atol
    ]
    assert not bad, f"{table} {col}: {len(bad)} value(s) outside ({rtol}, {atol}), first {bad[0]}"


@pytest.mark.parametrize("table", ["metrics.csv", "errors.csv"])
def test_golden_audio_stage(seed7_run, table):
    got = _read_csv(seed7_run[0] / table)
    ref = _read_csv(GOLDEN / table)
    assert [tuple(r[k] for k in KEY_COLUMNS) for r in got] == [
        tuple(r[k] for k in KEY_COLUMNS) for r in ref
    ]
    assert list(got[0]) == list(ref[0])
    for col in (c for c in ref[0] if c not in KEY_COLUMNS):
        _assert_audio_close([g[col] for g in got], [float(r[col]) if r[col] != "" else None for r in ref],
                            table, col)


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    corpus_dir = tmp_path_factory.mktemp("long_corpus")
    out = tmp_path_factory.mktemp("long_audio")
    assert main(["synth", "--out", str(corpus_dir), "--seed", "7", "--utterances", "2",
                 "--duration", "20"]) == EXIT_OK
    manifest = corpus_dir / "manifest.csv"
    header, *rows = manifest.read_text(encoding="utf-8").splitlines()
    kept = [r for r in rows if _key(dict(zip(header.split(","), r.split(",")))) in LONG_PAIRS]
    manifest.write_text("\n".join((header, *kept)) + "\n", encoding="utf-8")
    assert main(["metrics", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("table", ["metrics.csv", "errors.csv"])
def test_golden_long_pair(long_run, table):
    got = _read_csv(long_run / table)
    ref = json.loads(LONG_REFERENCE.read_text(encoding="utf-8"))[table.removesuffix(".csv")]
    assert tuple(_key(g) for g in got) == LONG_PAIRS
    rows = [ref["key"].index(key) for key in LONG_PAIRS]
    assert list(got[0]) == [*KEY_COLUMNS, *(c for c in ref if c != "key")]
    for col in (c for c in ref if c != "key"):
        _assert_audio_close([g[col] for g in got], [ref[col][row] for row in rows], table, col)


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


def _shifted_variant(path):
    """The frozen metrics.csv with stoi lowered by 0.01 on every row and the first row's wss blank."""
    with open(GOLDEN / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    stoi, wss = rows[0].index("stoi"), rows[0].index("wss")
    for row in rows[1:]:
        row[stoi] = repr(float(row[stoi]) - 0.01)
    rows[1][wss] = ""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_golden_report(tmp_path):
    shutil.copyfile(GOLDEN / "metrics.csv", tmp_path / "metrics.csv")
    _shifted_variant(tmp_path / "metrics_shifted.csv")
    assert main(["report", "--out", str(tmp_path)]) == EXIT_OK
    for name in ("comparison.csv", "comparison.json", "comparison.md"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
