#!/usr/bin/env python3
"""Write the reference outputs and input fingerprints the benchmark checks against.

    python3 perfbench/record_references.py [WORKLOAD ...]

For every input seed of ``workloads.INPUT_SEEDS`` this generates the
workload's inputs, runs its stages once and stores the input fingerprint
plus ``metrics.csv``, ``errors.csv``, ``fit_stoi.json`` and
``decomposition_stoi.json`` values in ``perfbench/reference``. Rerun it only
when a change to the outputs is intended, and say so with the change.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import run
from checks import Checks, collect_outputs, reference_path
from workloads import INPUT_SEEDS, WORKLOADS, fingerprint


def _rounded(value):
    """Floats to 12 significant digits, far inside every tolerance of checks.py."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def record(name: str, seed: int) -> None:
    workload = WORKLOADS[name]
    runner = run.Runner(time.monotonic() + 600.0)
    if run.WORK.exists():
        shutil.rmtree(run.WORK)
    run.WORK.mkdir()
    inputs = run.WORK / "inputs"
    run.make_inputs(runner, workload, seed, inputs)
    checks = Checks()
    out = run.WORK / "runs" / "reference"
    run.run_pass(runner, workload, inputs, out, checks)
    if checks.failures:
        raise SystemExit(f"{name} seed {seed}: {checks.failures}")
    payload = {"fingerprint": fingerprint(inputs), **_rounded(collect_outputs(out, workload.stages))}
    path = reference_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"{path.relative_to(run.ROOT)}: {payload['fingerprint'][:12]}")


def main(argv: list[str]) -> int:
    run.preflight()
    for name in argv or sorted(WORKLOADS):
        for seed in INPUT_SEEDS:
            record(name, seed)
    shutil.rmtree(run.WORK)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
