"""Workload definitions: seeded inputs, their fingerprints and the stage commands.

The benchmark seed picks one of ``INPUT_SEEDS`` (seed modulo the pool size),
so every input the benchmark can generate has reference outputs and a
fingerprint stored under ``perfbench/reference``.
"""
from __future__ import annotations

import csv
import hashlib
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_SEEDS = (7, 1, 2, 3, 4, 5)

N_FEATURES = 26
CELLS = tuple((g, c, d) for g in (0, 1) for c in (0, 1) for d in (0, 1))

METRICS_COLUMNS = (
    "utterance_id", "G", "C", "D",
    "stoi", "snr_seg", "fw_snr_seg", "llr", "wss",
    "csii_high", "csii_mid", "csii_low", "ncm",
    "pesq", "csig", "cbak", "covl",
)
ERRORS_COLUMNS = ("utterance_id", "G", "C", "D") + tuple(f"e{i}" for i in range(N_FEATURES))


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    synth_args: tuple[str, ...] = ()  # empty with model_rows set: no audio
    model_rows: int = 0
    cells_per_utterance: int = len(CELLS)  # fewer: see thin_corpus

    @property
    def has_audio(self) -> bool:
        return not self.model_rows


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-short",
            ("metrics", "features", "fit", "decompose", "report"),
            synth_args=("--utterances", "16", "--duration", "1"),
        ),
        # 8 pairs of 20 s, one cell from each of eight utterances. Each
        # utterance draws its own pitch, and the feature stage's cost grows
        # with the number of pitch periods, so a single utterance made the
        # work per seed differ by up to 2x; eight average that out.
        Workload(
            "long-utterance",
            ("metrics", "features"),
            synth_args=("--utterances", "8", "--duration", "20"),
            cells_per_utterance=1,
        ),
        Workload("model-scale", ("fit", "decompose"), model_rows=20000),
    )
}


def input_seed(seed: int) -> int:
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def stage_argv(stage: str, inputs: Path, out: Path) -> list[str]:
    """Arguments after ``python3 -m vda.cli`` for one stage."""
    if stage in ("metrics", "features"):
        return [stage, "--manifest", str(inputs / "manifest.csv"), "--out", str(out), "--jobs", "1"]
    if stage in ("fit", "decompose"):
        return [stage, "--out", str(out), "--outcome", "stoi"]
    return [stage, "--out", str(out)]


def synth_argv(workload: Workload, in_seed: int, inputs: Path) -> list[str]:
    return ["synth", "--out", str(inputs), "--seed", str(in_seed), *workload.synth_args]


def thin_corpus(inputs: Path, keep: int) -> None:
    """Keep ``keep`` cells of each utterance of a synth corpus and delete the unused WAVs.

    Utterance ``u`` keeps the cells ``keep*u`` to ``keep*u + keep - 1``
    (cell index ``4G + 2C + D``, modulo 8), so consecutive utterances cover
    every cell in turn.
    """
    manifest = inputs / "manifest.csv"
    with open(manifest, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        rows = list(reader)
    utterances = {u: i for i, u in enumerate(sorted({r["utterance_id"] for r in rows}))}

    def kept(row: dict) -> bool:
        cell = 4 * int(row["G"]) + 2 * int(row["C"]) + int(row["D"])
        return (cell - keep * utterances[row["utterance_id"]]) % len(CELLS) < keep

    rows = [r for r in rows if kept(r)]
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    used = {inputs / r[k] for r in rows for k in ("clean_path", "degraded_path")}
    for wav in (inputs / "wav").glob("*.wav"):
        if wav not in used:
            wav.unlink()


def _fmt(value: float) -> str:
    return repr(float(value))


def write_model_inputs(inputs: Path, n_rows: int, seed: int) -> None:
    """Seeded ``metrics.csv`` and ``errors.csv`` with rows balanced over the 8 cells.

    Feature errors are non-negative like real L1 errors (``e0`` is the
    intercept 1); stoi is a cell-dependent linear response plus noise, so
    every stratum fit is full rank.
    """
    rng = np.random.default_rng(seed)
    cells = np.array([CELLS[i % len(CELLS)] for i in range(n_rows)])
    e = np.abs(rng.normal(0.0, 1.0, (n_rows, N_FEATURES))) * rng.uniform(0.2, 3.0, N_FEATURES)
    e[:, 0] = 1.0
    beta = rng.normal(0.0, 0.01, (len(CELLS), N_FEATURES))
    beta[:, 0] += 0.9
    cell_index = cells @ np.array([4, 2, 1])
    y = np.einsum("ij,ij->i", e, beta[cell_index]) + rng.normal(0.0, 0.02, n_rows)
    y = np.clip(y, -1.0, 1.0)
    inputs.mkdir(parents=True, exist_ok=True)
    with open(inputs / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        blanks = [""] * (len(METRICS_COLUMNS) - 5)
        for i in range(n_rows):
            g, c, d = cells[i]
            writer.writerow([f"m{i:05d}", g, c, d, _fmt(y[i]), *blanks])
    with open(inputs / "errors.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ERRORS_COLUMNS)
        for i in range(n_rows):
            g, c, d = cells[i]
            writer.writerow([f"m{i:05d}", g, c, d, *(_fmt(v) for v in e[i])])


def fingerprint(inputs: Path) -> str:
    """sha256 over every input file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in inputs.rglob("*") if p.is_file()):
        digest.update(path.relative_to(inputs).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def audio_seconds(inputs: Path) -> float:
    """Seconds of paired audio in a synth corpus: the degraded side of every pair."""
    with open(inputs / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    total = 0.0
    for row in rows:
        with wave.open(str(inputs / row["degraded_path"])) as wav:
            total += wav.getnframes() / wav.getframerate()
    return total


def count_pairs(inputs: Path) -> int:
    manifest = inputs / "manifest.csv"
    if not manifest.exists():
        return 0
    with open(manifest, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.DictReader(fh))
