#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vda CLI pipeline.

    python3 perfbench/run.py --workload corpus-short --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout. Workloads (``workloads.py``):

* ``corpus-short``: ``vda synth`` defaults (16 utterances x 8 cells x 1 s),
  then metrics, features, fit, decompose and report.
* ``long-utterance``: 8 pairs of 20 s, one cell from each of eight
  utterances, metrics and features.
* ``model-scale``: seeded 20000-row ``metrics.csv``/``errors.csv``, fit and
  decompose; no audio.

Every stage runs as a fresh ``python3 -m vda.cli`` process with ``--jobs 1``
and one BLAS thread. The run repeats the workload's stages until
``--seconds`` have passed (at least once) and reports medians.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter running ``import vda.cli``), ``pipeline_s`` (sum of the
stage times), ``peak_rss_mb`` (highest peak RSS of any stage process) and
``ok_ratio`` (checks passed over checks made).

The times are not wall seconds. On a shared virtual machine the same stage
took from 1x to 1.6x its usual time, in phases of tens of seconds, because
the host slowed the CPU it ran on. So the benchmark pins itself and its
children to one CPU, takes each child's CPU time (user plus system, which
also leaves out the time the host takes the CPU away) and divides it by the
slowdown a ``SpeedProbe`` saw on that CPU while the child ran: each time is
CPU seconds at the probes' reference speed. Every stage is one
single-threaded process, so on an idle host this is close to its wall time. The
CPU times, slowdowns and wall times are printed and kept in the run record.

``--trace 1`` runs the stages once untraced and once under ``tracer.py`` and
prints the per-layer metrics of ``layers.PER_LAYER``.

Every run checks the outputs (``checks.py``) and the fingerprint of the
generated inputs, and writes a record with the environment, every figure and
the spans of a traced run to ``.perfbench_work/``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checks, check_outputs, collect_outputs, load_reference  # noqa: E402
from layers import PER_LAYER, STAGES, parse_importtime, probe_seconds, self_times, span_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CELLS, WORKLOADS, Workload, audio_seconds, count_pairs, fingerprint, input_seed,
    stage_argv, synth_argv, thin_corpus, write_model_inputs,
)

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot produce a result; exits non-zero without one."""


PROBE_PERIOD_S = 0.05
_FFT_INPUT = np.random.default_rng(0).standard_normal(4096)


def _python_loop() -> None:
    total = 0
    for i in range(20000):
        total += i * i


def _fft_loop() -> None:
    for _ in range(40):
        np.fft.rfft(_FFT_INPUT * 1.0001)


# Each probe's time on the CPU the benchmark was written on (a 2-vCPU Xeon
# virtual machine) when its host was not slowing it down. Interpreted code
# and NumPy code slow down by different amounts; the stages run both.
PROBES = ((_python_loop, 1.40e-3), (_fft_loop, 1.75e-3))


class SpeedProbe:
    """Samples how fast the CPU is while a child process runs on it.

    The host of a virtual machine can slow one of its CPUs by half for tens
    of seconds (another tenant on the same core), so the same stage's CPU
    time varies that much between runs; a probe on another CPU does not see
    it. The benchmark keeps itself and its children on one CPU (``main``),
    and this thread times each of ``PROBES`` every ``PROBE_PERIOD_S`` by its
    own CPU time, which leaves out the time the child holds the CPU.
    """

    def __init__(self) -> None:
        self.samples: list[list[float]] = [[] for _ in PROBES]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            for (probe, _), samples in zip(PROBES, self.samples):
                start = time.thread_time()
                probe()
                samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Geometric mean over the probes of time over reference time.

        A probe's time is the harmonic mean of its samples, which weighs each
        moment by the work the child did in it."""
        ratios = [statistics.harmonic_mean(samples) / ref for (_, ref), samples in zip(PROBES, self.samples)]
        return statistics.geometric_mean(ratios)


class Child(NamedTuple):
    code: int
    wall: float  # seconds
    cpu: float  # user plus system seconds
    rss: float  # peak RSS, MB
    slowdown: float  # SpeedProbe.slowdown while it ran, 1.0 unprobed

    @property
    def scaled(self) -> float:
        """CPU seconds at the reference speed of the probes."""
        return self.cpu / self.slowdown


class Runner:
    """Starts child processes with the benchmark's environment and a shared deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in ("VDA_NUMBA", "VDA_LOG", "PYTHONPATH")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        for var in BLAS_VARS:
            env[var] = BLAS_THREADS
        self.env = env

    def run(self, argv: list[str], log_stem: Path, probe: bool = False) -> Child:
        """Run ``argv``, with a ``SpeedProbe`` beside it if ``probe``."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[:4]))
        log_stem.parent.mkdir(parents=True, exist_ok=True)
        with open(log_stem.with_suffix(".out"), "wb") as out, open(log_stem.with_suffix(".err"), "wb") as err, \
                SpeedProbe() if probe else contextlib.nullcontext() as speed:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.send_signal, (signal.SIGKILL,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise BenchError(f"timed out: {' '.join(argv[:4])}")
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     speed.slowdown() if speed is not None else 1.0)


def _python() -> str:
    return sys.executable or "python3"


def preflight() -> None:
    cli = ROOT / "src" / "vda" / "cli.py"
    if not cli.is_file():
        raise BenchError(f"no vda sources at {cli.relative_to(ROOT)}; run from a checkout of the repository")


def build(runner: Runner) -> None:
    code, *_ = runner.run([_python(), "-m", "compileall", "-q", "src/vda"], WORK / "logs" / "build")
    if code != 0:
        raise BenchError("compiling src/vda failed")


def environment(runner: Runner) -> dict:
    probe = ("import json, importlib.util, numpy, scipy, vda.kernels as k; print(json.dumps({"
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'numba_importable': importlib.util.find_spec('numba') is not None, "
             "'kernels_backend': k.backend_name()}))")
    log = WORK / "logs" / "environment"
    code, *_ = runner.run([_python(), "-c", probe], log)
    if code != 0:
        raise BenchError("cannot import vda: " + log.with_suffix(".err").read_text()[-500:])
    record = json.loads(log.with_suffix(".out").read_text().strip().splitlines()[-1])
    record.update({
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: runner.env[var] for var in BLAS_VARS},
    })
    return record


def make_inputs(runner: Runner, workload: Workload, in_seed: int, inputs: Path) -> None:
    """Generate the inputs for input seed ``in_seed`` (already mapped by ``input_seed``)."""
    if workload.has_audio:
        code, *_ = runner.run([_python(), "-m", "vda.cli", *synth_argv(workload, in_seed, inputs)],
                                WORK / "logs" / "synth")
        if code != 0:
            raise BenchError("vda synth failed")
        if workload.cells_per_utterance < len(CELLS):
            thin_corpus(inputs, workload.cells_per_utterance)
    else:
        write_model_inputs(inputs, workload.model_rows, in_seed)


def measure_setup(runner: Runner) -> list[Child]:
    """Fresh interpreters importing ``vda.cli``, probed.

    The environment probe has already imported vda once, so the file cache
    is warm and the bytecode compiled."""
    argv = [_python(), "-c", "import vda.cli"]
    children = []
    for i in range(SETUP_REPEATS):
        child = runner.run(argv, WORK / "logs" / f"setup-{i}", probe=True)
        if child.code != 0:
            raise BenchError("import vda.cli failed")
        children.append(child)
    return children


def run_pass(runner: Runner, workload: Workload, inputs: Path, out: Path, checks: Checks,
             spans_dir: Path | None = None) -> dict:
    """Run the workload's stages once into ``out``; ``spans_dir`` switches tracing on."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if not workload.has_audio:
        for name in ("metrics.csv", "errors.csv"):
            shutil.copyfile(inputs / name, out / name)
    children: dict[str, Child] = {}
    spans: dict[str, dict] = {}
    for stage in workload.stages:
        args = stage_argv(stage, inputs, out)
        if spans_dir is None:
            argv = [_python(), "-m", "vda.cli", *args]
        else:
            spans_path = spans_dir / f"{stage}.json"
            argv = [_python(), str(HERE / "tracer.py"), "stage", str(spans_path), "--", *args]
        child = runner.run(argv, out.parent / "logs" / f"{out.name}-{stage}", probe=spans_dir is None)
        checks.expect(child.code == 0, f"{out.name}: vda {stage} exited {child.code}")
        children[stage] = child
        if spans_dir is not None:
            payload = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": []}
            for msg in payload.get("mismatches", []):
                checks.expect(False, f"{out.name} {stage}: {msg}")
            spans[stage] = payload
    return {"walls": {s: c.wall for s, c in children.items()},
            "cpus": {s: c.cpu for s, c in children.items()},
            "scaled": {s: c.scaled for s, c in children.items()},
            "slowdowns": {s: c.slowdown for s, c in children.items()},
            "rss": max(c.rss for c in children.values()), "spans": spans}


def check_pass(checks: Checks, workload: Workload, out: Path, reference: dict | None, n_pairs: int) -> None:
    try:
        outputs = collect_outputs(out, workload.stages)
    except (OSError, ValueError, KeyError) as exc:
        checks.expect(False, f"{out.name}: cannot read outputs: {exc}")
        return
    check_outputs(checks, outputs, reference, n_pairs, out.name)


def measured_passes(runner: Runner, workload: Workload, inputs: Path, seconds: float, checks: Checks,
                    reference: dict | None, n_pairs: int) -> list[dict]:
    """Repeat the stages while the next pass, as long as the last, ends within ``seconds``."""
    passes = []
    start = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - start + last <= seconds:
        pass_start = time.monotonic()
        out = WORK / "runs" / f"pass{len(passes)}"
        result = run_pass(runner, workload, inputs, out, checks)
        check_pass(checks, workload, out, reference, n_pairs)
        passes.append(result)
        last = time.monotonic() - pass_start
    return passes


def stage_medians(passes: list[dict], stages: tuple[str, ...], key: str) -> dict[str, float]:
    return {s: statistics.median(p[key][s] for p in passes) for s in stages}


def importtime(runner: Runner) -> dict[str, float]:
    samples = []
    for i in range(IMPORTTIME_REPEATS):
        log = WORK / "logs" / f"importtime-{i}"
        code, *_ = runner.run([_python(), "-X", "importtime", "-c", "import vda.cli"], log)
        if code != 0:
            raise BenchError("import vda.cli failed under -X importtime")
        samples.append(parse_importtime(log.with_suffix(".err").read_text()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def kernel_bench(runner: Runner, seed: int) -> dict:
    log = WORK / "logs" / "kernels"
    code, *_ = runner.run([_python(), str(HERE / "tracer.py"), "kernels", str(seed)], log)
    if code != 0:
        raise BenchError("kernel timing failed: " + log.with_suffix(".err").read_text()[-500:])
    return json.loads(log.with_suffix(".out").read_text().strip().splitlines()[-1])


def traced_run(runner: Runner, workload: Workload, inputs: Path, seed: int, checks: Checks,
               reference: dict | None, n_pairs: int, audio_s: float) -> tuple[dict, dict]:
    plain_out = WORK / "runs" / "untraced"
    plain = run_pass(runner, workload, inputs, plain_out, checks)
    check_pass(checks, workload, plain_out, reference, n_pairs)
    traced_out = WORK / "runs" / "traced"
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced = run_pass(runner, workload, inputs, traced_out, checks, spans_dir)
    check_pass(checks, workload, traced_out, reference, n_pairs)

    stage_spans = {s: p.get("spans", []) for s, p in traced["spans"].items()}
    metrics = span_metrics(stage_spans, n_pairs)
    metrics.update(importtime(runner))
    kernels = kernel_bench(runner, seed)
    for name in ("local_peak_values", "levinson_batch", "mark_periods"):
        metrics[f"kernels.{name}.bench_ms"] = kernels[name] * 1e3
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = plain["scaled"].get(stage, 0.0)
    audio_cpu = sum(plain["scaled"].get(s, 0.0) for s in ("metrics", "features"))
    metrics["stage.audio_s_per_s"] = audio_s / audio_cpu if audio_cpu else 0.0
    # CPU times: the untraced pass runs beside a SpeedProbe, which adds to its wall time.
    traced_total = sum(traced["cpus"][s] - probe_seconds(stage_spans[s]) for s in workload.stages)
    metrics["trace.overhead_ratio"] = traced_total / sum(plain["cpus"].values())

    missing = sorted({m for p in traced["spans"].values() for m in p.get("missing", [])})
    (WORK / "spans.json").write_text(json.dumps(
        {"columns": ["id", "name", "parent", "group", "start", "end", "rows"], "stages": stage_spans}))
    extra = {"untraced_stage_scaled_s": plain["scaled"], "untraced_stage_cpu_s": plain["cpus"],
             "untraced_stage_slowdown": plain["slowdowns"], "untraced_stage_wall_s": plain["walls"],
             "traced_stage_wall_s": traced["walls"],
             "layer_self_s": self_times(stage_spans),
             "kernels_backend": kernels["backend"], "unwrapped_functions": missing}
    return metrics, extra


def fmt_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # A terminated run raises SystemExit, so Runner.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for the benchmark, its children and their SpeedProbe threads.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    preflight()
    runner = Runner(time.monotonic() + DEADLINE_S)
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    build(runner)
    env_record = environment(runner)

    checks = Checks()
    inputs = WORK / "inputs"
    seed_in = input_seed(args.seed)
    make_inputs(runner, workload, seed_in, inputs)
    reference = load_reference(workload.name, seed_in)
    digest = fingerprint(inputs)
    checks.expect(reference is not None and reference.get("fingerprint") == digest,
                  f"inputs of {workload.name} seed {seed_in} changed: fingerprint {digest}")
    n_pairs = count_pairs(inputs)
    audio_s = audio_seconds(inputs) if workload.has_audio else 0.0

    record: dict = {"workload": workload.name, "seed": args.seed, "input_seed": seed_in,
                    "seconds": args.seconds, "trace": args.trace, "environment": env_record,
                    "input_fingerprint": digest, "pairs": n_pairs, "audio_s": audio_s}
    if args.trace:
        metrics, extra = traced_run(runner, workload, inputs, args.seed, checks, reference, n_pairs, audio_s)
        record.update(extra)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"kernels backend: {extra['kernels_backend']}")
        if extra["unwrapped_functions"]:
            print(f"not found, reported as 0: {', '.join(extra['unwrapped_functions'])}")
    else:
        setup = measure_setup(runner)
        record["setup_samples"] = [c._asdict() for c in setup]
        passes = measured_passes(runner, workload, inputs, args.seconds, checks, reference, n_pairs)
        record["passes"] = [{k: p[k] for k in ("scaled", "cpus", "slowdowns", "walls")} for p in passes]
        cpus, slowdowns, walls = (stage_medians(passes, workload.stages, k) for k in ("cpus", "slowdowns", "walls"))
        stages = stage_medians(passes, workload.stages, "scaled")
        for stage, scaled in stages.items():
            print(f"{stage}_s = {scaled:.4f} s (CPU {cpus[stage]:.4f} s, slowdown {slowdowns[stage]:.3f}, "
                  f"wall {walls[stage]:.4f} s)")
        if workload.has_audio:
            scaled = stages["metrics"] + stages["features"]
            print(f"audio_s_per_s = {audio_s / scaled:.4f} s/s ({audio_s:g} s of paired audio)")
        metrics = {
            "setup_s": statistics.median(c.scaled for c in setup),
            "pipeline_s": statistics.median(sum(p["scaled"].values()) for p in passes),
            "peak_rss_mb": max(p["rss"] for p in passes),
            "ok_ratio": 1.0 - checks.failed / max(checks.attempted, 1),
        }
        units = END_TO_END

    for name in sorted(metrics):
        print(f"{name} = {fmt_value(metrics[name])} {units[name]}")
    for msg in checks.failures[:20]:
        print(f"check failed: {msg}")
    print(f"checks: {checks.attempted - checks.failed}/{checks.attempted} passed; "
          f"environment: {json.dumps(env_record, sort_keys=True)}")
    record.update({"metrics": metrics, "checks_attempted": checks.attempted, "check_failures": checks.failures})
    (WORK / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
