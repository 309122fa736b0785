"""Byte-for-byte renders of the seed-7 fit and decomposition.

``tests/golden/render`` holds the files ``fit --outcome stoi`` and
``decompose --outcome stoi`` (stratum reference) wrote from the frozen
seed-7 tables of ``tests/golden/seed7``. The tests rebuild the
``RegressionFit`` and the decomposition list from the two JSON files and
assert that ``report`` renders every file with the same bytes.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vda.model import COLUMN_LABELS, OaxacaDecomposition, RegressionFit
from vda.report import decomposition_records, render_decomposition_table, render_regression_table

GOLDEN = Path(__file__).resolve().parent / "golden" / "render"
PARTS = ("endowment", "coefficient", "interaction", "collective")


def _golden_json(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _golden_fit():
    """The fit of ``fit_stoi.json``: a null theta is a dropped column and a
    null t on a retained column an infinite one."""
    payload = _golden_json("fit_stoi.json")
    records = payload["coefficients"]
    assert [(r["feature_index"], r["interaction_label"]) for r in records] == list(COLUMN_LABELS)
    retained = np.array([r["theta"] is not None for r in records])

    def column(name, dropped, null=math.nan):
        return np.array([(null if r[name] is None else r[name]) if kept else dropped
                         for r, kept in zip(records, retained)])

    return RegressionFit(column("theta", 0.0), column("std_err", math.nan),
                         column("t", math.nan, math.inf), column("p", math.nan),
                         payload["residual_variance"], payload["dof"], retained)


def _golden_table():
    return [OaxacaDecomposition(r["indicator"], *(r[k] for k in PARTS))
            for r in _golden_json("decomposition_stoi.json")["rows"]]


@pytest.mark.parametrize("name,fmt", [
    ("fit_stoi.json", "json"), ("regression_stoi.csv", "csv"), ("regression_stoi.md", "markdown"),
])
def test_regression_renders_golden_bytes(name, fmt):
    got = render_regression_table(_golden_fit(), fmt)
    assert got.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,fmt", [
    ("decomposition_stoi.csv", "csv"), ("decomposition_stoi.md", "markdown"),
])
def test_decomposition_renders_golden_bytes(name, fmt):
    got = render_decomposition_table(_golden_table(), fmt)
    assert got.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_decomposition_records_golden_bytes():
    # the payload ``decompose`` writes: the records plus the outcome and reference mode
    payload = {"outcome": "stoi", "reference": "stratum", "rows": decomposition_records(_golden_table())}
    got = json.dumps(payload, indent=2, sort_keys=True)
    assert got.encode("utf-8") == (GOLDEN / "decomposition_stoi.json").read_bytes()
