"""Command-line pipeline: validate | synth | metrics | features | fit | decompose | report.

Stages communicate through files in the --out directory so each one can be
rerun independently; reruns on unchanged inputs are byte-identical. Exit
codes: 0 success, 1 usage/schema, 2 data, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import logging
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import corpus, features, metrics, model, report, synth
from .errors import (
    AlignmentError,
    DegenerateInputError,
    DependencyError,
    FormatError,
    MetricError,
    PreconditionError,
    SchemaError,
    StratificationError,
    UnderdeterminedError,
    UnsupportedFormatError,
    VdaError,
)

log = logging.getLogger("vda")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_MAX_LAG_SECONDS = 0.25

# The row key that leads every table; metrics.csv carries metrics.COLUMNS
# after it, errors.csv the ERROR_COLUMNS and both features_*.csv FEATURE_COLUMNS.
KEY_COLUMNS = ("utterance_id", "G", "C", "D")
ERROR_COLUMNS = tuple(f"e{i}" for i in range(features.N_FEATURES))
FEATURE_COLUMNS = tuple(f"x{i}" for i in range(features.N_FEATURES))

OUTCOMES = ("stoi", "pesq")

# The G/C/D cells of a valid table row, as text, each mapped to its row of _CONDITION_LABELS.
_CONDITION_INDEX = {tuple(map(str, cell.as_tuple())): i for i, cell in enumerate(corpus.ALL_CELLS)}
_CONDITION_LABELS = np.array([cell.as_tuple() for cell in corpus.ALL_CELLS])

# Exception classes -> exit code, first match wins. Used by main and, for
# failed rows, by the metrics and features stages.
_EXIT_CODES = (
    ((SchemaError, ValueError), EXIT_USAGE),
    ((FormatError, UnsupportedFormatError, DependencyError,
      StratificationError, FileNotFoundError), EXIT_DATA),
    ((DegenerateInputError, PreconditionError, UnderdeterminedError,
      AlignmentError, MetricError), EXIT_NUMERIC),
    ((VdaError,), EXIT_DATA),
)


def _exit_code(exc: Exception) -> int | None:
    return next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), None)


def _configure_logging() -> None:
    level = os.environ.get("VDA_LOG", "WARNING").upper()
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        log.setLevel(level)
    except ValueError:
        log.setLevel(logging.WARNING)


def _max_lag(rate: int) -> int:
    return int(round(DEFAULT_MAX_LAG_SECONDS * rate))


def _load_signal(path) -> corpus.AudioSignal:
    return corpus.resample(corpus.load_wav(path), corpus.CANONICAL_RATE)


def _load_pair(entry: corpus.ManifestEntry) -> corpus.AlignedPair:
    return corpus.align(_load_signal(entry.clean_path), _load_signal(entry.degraded_path),
                        _max_lag(corpus.CANONICAL_RATE))


def _entry_key(entry: corpus.ManifestEntry) -> tuple:
    return (entry.utterance_id, entry.label.g, entry.label.c, entry.label.d)


def _row_failure(key: tuple, exc: Exception) -> tuple[int, str]:
    """Exit code and message for the failed row ``key``.

    Arguments are checked before any row runs, so a row never fails as
    usage: a ValueError inside a row, or an unmapped exception, is numeric.
    """
    code = _exit_code(exc)
    if code in (None, EXIT_USAGE):
        code = EXIT_NUMERIC
    return code, f"{_key_name(key)}: {exc}"


def _metric_row(args: tuple) -> tuple[tuple, tuple[int, str] | None]:
    """The metrics.csv row of one pair; a failed row is its key alone."""
    entry, selected = args
    key = _entry_key(entry)
    try:
        pair = _load_pair(entry)
        rep = metrics.evaluate_pair(pair, entry.external_pesq, selected)
    except Exception as exc:
        return key, _row_failure(key, exc)
    return key + rep.cells(), None


def _feature_rows(entries: list[corpus.ManifestEntry]) -> list[tuple]:
    """The _feature_row results of ``entries``, which share one clean file.

    The clean file is loaded once, and its frame terms are taken once per
    start offset of the pairs' clean crops, on the clean signal from that
    offset on; a crop's features are then the means over its own frames.
    A clean file that fails to load fails every row.
    """
    try:
        source = _load_signal(entries[0].clean_path)
    except Exception as exc:
        return [(key, key, key, _row_failure(key, exc)) for key in map(_entry_key, entries)]
    terms: dict[int, features.FrameTerms] = {}
    return [_feature_row(entry, source, terms) for entry in entries]


def _feature_row(entry: corpus.ManifestEntry, source: corpus.AudioSignal,
                 terms: dict[int, features.FrameTerms]
                 ) -> tuple[tuple, tuple, tuple, tuple[int, str] | None]:
    """The errors.csv, features_clean.csv and features_degraded.csv rows of
    one pair, whose clean side is ``source``; ``terms`` holds the frame
    terms of ``source`` by start offset, and gains the offset this pair needs."""
    key = _entry_key(entry)
    try:
        pair = corpus.align(source, _load_signal(entry.degraded_path), _max_lag(corpus.CANONICAL_RATE))
        # the clean crop as a view of the source, so that align's copy of it is freed
        start, degraded = max(0, -pair.applied_lag), pair.degraded
        clean = corpus.AudioSignal(source.samples[start:start + len(degraded)], source.rate)
        del pair
        if start not in terms:
            terms[start] = features.frame_terms(corpus.AudioSignal(source.samples[start:], source.rate))
        fv_clean = features.utterance_means(terms[start], clean)
        fv_degraded = features.extract_features(degraded)
        err = features.feature_error(fv_clean, fv_degraded)
    except Exception as exc:
        return key, key, key, _row_failure(key, exc)
    return key + tuple(err.e), key + tuple(fv_clean.x), key + tuple(fv_degraded.x), None


def _sorted_entries(path: str) -> list[corpus.ManifestEntry]:
    """The entries of the manifest at ``path`` in key order; a key listed
    twice is a FormatError, raised before any pair is scored."""
    entries = corpus.parse_manifest(path).entries
    _check_unique_keys(path, map(_entry_key, entries))
    return sorted(entries, key=_entry_key)


def _check_unique_keys(path, keys) -> None:
    """A FormatError on the first key that ``keys``, the data rows of ``path``, repeats."""
    seen: dict[tuple, int] = {}
    for row, key in enumerate(keys, start=1):
        if seen.setdefault(key, row) != row:
            raise FormatError(f"{path}: {_key_name(key)}: repeated on data rows {seen[key]} and {row}")


# The variables OpenBLAS reads its thread count from; one that is set is the user's choice.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _set_process_policy() -> None:
    """Keep freed arrays in the heap and, unless one of _BLAS_THREAD_VARS is
    set, run the OpenBLAS that numpy loaded on one thread.

    glibc otherwise unmaps each block over its mmap threshold on free and
    trims the heap top, so every FFT buffer of a long recording is faulted
    in again page by page; setting either threshold alone turns off the
    dynamic one, and the other default still returns the memory. OpenBLAS
    otherwise keeps a thread per core spinning beside a stage that gains
    nothing from it, and it reads the environment only when numpy loads, so
    its own setter is called. main and the --jobs workers' initializer call
    this; library use of vda does not. Each part does nothing where its
    library is missing: mallopt outside glibc (macOS, Windows, musl), the
    setter under another BLAS (MKL, Accelerate).
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 * 2 ** 20)  # M_MMAP_THRESHOLD, at its 64-bit maximum
        mallopt(-1, 2 ** 30)  # M_TRIM_THRESHOLD: keep up to 1 GiB free at the heap top
    except (AttributeError, OSError, TypeError):
        pass
    if not any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(blas, name):
                getattr(blas, name)(1)
                break


def _map_jobs(func, items, jobs: int):
    if jobs <= 1:
        return [func(item) for item in items]
    import multiprocessing  # kept off the --jobs 1 start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn"), _set_process_policy) as pool:
        return list(pool.map(func, items))


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    """Write ``rows`` under ``header``; a short row (a failed one) ends in blank cells."""
    padded = [row + (None,) * (len(header) - len(row)) for row in rows]
    path.write_text(report.csv_text(header, padded), encoding="utf-8")


def cmd_validate(args) -> int:
    manifest = corpus.parse_manifest(args.manifest)
    rep = corpus.validate_manifest(manifest)
    for path in rep.missing:
        print(f"missing: {path}")
    for utt, label in rep.duplicates:
        print(f"duplicate: {utt} (G={label.g}, C={label.c}, D={label.d})")
    for cell in corpus.ALL_CELLS:
        print(f"cell G={cell.g} C={cell.c} D={cell.d}: {rep.cell_counts.get(cell, 0)} utterance(s)")
    print("ok" if rep.ok else "invalid")
    return EXIT_OK if rep.ok else EXIT_DATA


def cmd_synth(args) -> int:
    manifest_path = synth.generate_corpus(
        args.out, n_utterances=args.utterances, seed=args.seed, duration=args.duration
    )
    print(manifest_path)
    return EXIT_OK


def cmd_metrics(args) -> int:
    entries = _sorted_entries(args.manifest)
    selected = tuple(s.strip() for s in args.metrics.split(",") if s.strip())
    if not selected:
        raise SchemaError("--metrics selected an empty metric set")
    unknown = set(selected) - set(metrics.METRIC_NAMES)
    if unknown:
        raise SchemaError(f"unknown metric(s): {sorted(unknown)}")
    results = _map_jobs(_metric_row, [(e, selected) for e in entries], args.jobs)
    failures = [failure for _, failure in results if failure]
    for _, msg in failures:
        log.error("metrics failed for %s", msg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "metrics.csv", KEY_COLUMNS + metrics.COLUMNS, [row for row, _ in results])
    print(out_dir / "metrics.csv")
    return failures[0][0] if failures else EXIT_OK


def cmd_features(args) -> int:
    entries = _sorted_entries(args.manifest)
    groups = [list(group) for _, group in itertools.groupby(entries, lambda e: e.clean_path)]
    results = [row for rows in _map_jobs(_feature_rows, groups, args.jobs) for row in rows]
    failures = [failure for *_rows, failure in results if failure]
    for _, msg in failures:
        log.error("features failed for %s", msg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "errors.csv", KEY_COLUMNS + ERROR_COLUMNS, [r[0] for r in results])
    _write_csv(out_dir / "features_clean.csv", KEY_COLUMNS + FEATURE_COLUMNS, [r[1] for r in results])
    _write_csv(out_dir / "features_degraded.csv", KEY_COLUMNS + FEATURE_COLUMNS, [r[2] for r in results])
    print(out_dir / "errors.csv")
    return failures[0][0] if failures else EXIT_OK


def _key_name(key: tuple[str, ...]) -> str:
    return f"{key[0]} {report.condition_name(*key[1:])}"


# Rows per np.loadtxt call of _read_table. A block is held as one Python
# string per cell, so its size, not the file's, sets the reader's peak memory.
_TABLE_BLOCK_ROWS = 1024


def _cell_values(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray | bool, tuple | None]:
    """float() of each cell of the object array ``texts``, a blank as NaN; the
    mask of the written cells (True where all are); and the (row, column,
    reason) of the first cell that float() refuses, or None."""
    try:
        return texts.astype(np.float64), True, None
    except ValueError:  # a blank cell, or one that float() refuses
        written = texts != ""
    try:
        return np.where(written, texts, "nan").astype(np.float64), written, None
    except ValueError:
        for (i, j), text in np.ndenumerate(texts):
            try:
                float(text or "nan")
            except ValueError as exc:
                return np.full(texts.shape, np.nan), written, (i, j, str(exc))
        raise


def _read_table(path: Path, columns: tuple[str, ...]) -> tuple[list[tuple], np.ndarray, np.ndarray]:
    """The keys, the (n, 3) 0/1 G/C/D labels and the (n, len(columns)) values
    of the non-blank rows of ``path``, a table led by ``KEY_COLUMNS``.

    csv.reader reads the header; numpy's tokenizer reads the rows as text,
    ``_TABLE_BLOCK_ROWS`` at a time, and float() reads each value cell. A
    blank cell and a column missing from the header read as NaN. A file that
    is not UTF-8, a header cell over csv's field limit and a row too short
    for a key or a requested column are FormatErrors naming the file. So are,
    in this order, a G/C/D cell other than ``0`` or ``1``, a repeated key, a
    cell that float() refuses and a written cell that is not finite; these
    also name the row, and the column of a bad cell.
    """
    if not path.exists():
        raise DependencyError(f"required upstream artifact missing: {path}")
    keys, blocks, refused, nonfinite = [], [], [], []  # the last two: (row, column, reason)
    try:
        with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            # numpy warns of a blank line and of a block with no row
            warnings.filterwarnings("ignore", ".*contained no data", UserWarning)
            header = next(csv.reader(fh), KEY_COLUMNS)  # an empty file is a table with no rows
            missing = [c for c in KEY_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {', '.join(missing)}")
            index = {name: i for i, name in enumerate(header)}
            present = [j for j, c in enumerate(columns) if c in index]
            usecols = [index[c] for c in KEY_COLUMNS] + [index[columns[j]] for j in present]
            for start in itertools.count(0, _TABLE_BLOCK_ROWS):
                cells = np.loadtxt(fh, dtype=object, delimiter=",", comments=None, quotechar='"',
                                   ndmin=2, usecols=usecols, max_rows=_TABLE_BLOCK_ROWS)
                keys += map(tuple, cells[:, :len(KEY_COLUMNS)].tolist())
                values, written, refusal = _cell_values(cells[:, len(KEY_COLUMNS):])
                if refusal:
                    refused.append((start + refusal[0], present[refusal[1]], refusal[2]))
                for i, j in np.argwhere(written & ~np.isfinite(values))[:1]:
                    nonfinite.append((start + i, present[j], "values must be blank or finite numbers"))
                block = np.full((len(cells), len(columns)), np.nan)
                block[:, present] = values
                blocks.append(block)
                if len(cells) < _TABLE_BLOCK_ROWS:
                    break
    except (ValueError, csv.Error) as exc:  # not UTF-8, a short row, a header cell too long
        reason = re.sub(r"at row (\d+)", lambda m: f"on data row {len(keys) + int(m[1])}", str(exc))
        raise FormatError(f"{path}: {reason}") from None

    def bad(i: int, column: str, reason: str) -> FormatError:
        return FormatError(f"{path}: {_key_name(keys[i])}: {reason} (column {column})")

    condition = np.fromiter((_CONDITION_INDEX.get(key[1:], -1) for key in keys), np.intp, len(keys))
    if (condition < 0).any():
        i = int(np.argmax(condition < 0))
        j = next(j for j in (1, 2, 3) if keys[i][j] not in ("0", "1"))
        raise bad(i, KEY_COLUMNS[j], "G/C/D indicators must be 0 or 1")
    _check_unique_keys(path, keys)
    for i, j, reason in (refused + nonfinite)[:1]:  # a refused cell before a non-finite one
        raise bad(i, columns[j], reason)
    return keys, _CONDITION_LABELS[condition], np.concatenate(blocks)


def _observations(out_dir: Path, outcome: str) -> model.Observations:
    """The model input: each metrics.csv row joined to its errors.csv row."""
    m_path, e_path = out_dir / "metrics.csv", out_dir / "errors.csv"
    keys, labels, outcomes = _read_table(m_path, ("stoi", outcome))
    e_keys, _, e = _read_table(e_path, ERROR_COLUMNS)
    e_row = dict(zip(e_keys, range(len(e_keys))))
    # a key without an errors.csv row points one past its last row
    at = np.fromiter(map(e_row.get, keys, itertools.repeat(len(e_keys))), np.intp, len(keys))
    no_errors = np.append(np.isnan(e).any(axis=1), True)[at]
    skipped = no_errors | np.isnan(outcomes[:, 0])
    for i in np.flatnonzero(skipped):
        path, reason = (e_path, "no feature errors") if no_errors[i] else (m_path, "no stoi value")
        log.warning("%s: %s: %s; row skipped", path, _key_name(keys[i]), reason)
    kept = np.flatnonzero(~skipped)
    if not len(kept):
        raise DependencyError("no joinable rows between metrics.csv and errors.csv")
    # a blank pesq: rows without stoi are skipped above
    no_pesq = kept[np.isnan(outcomes[kept, 1])]
    if len(no_pesq):
        first = no_pesq[0]
        raise DependencyError(f"{len(no_pesq)} row(s) lack an external pesq value "
                              f"(first {_key_name(keys[first])}, metrics.csv data row {first + 1})")
    try:
        return model.Observations(e[at[kept]], labels[kept], outcomes[kept, 1])
    except model.ObservationError as exc:  # only e can fail: _read_table checked the labels and y
        raise FormatError(f"{e_path}: {_key_name(keys[kept[exc.row]])}: {exc.reason}") from None


def cmd_fit(args) -> int:
    out_dir = Path(args.out)
    obs = _observations(out_dir, args.outcome)
    fit = model.fit_interactions(obs)
    # every table is rendered before any is written, so a fit that cannot be
    # rendered leaves no files
    texts = {f"fit_{args.outcome}.json": report.render_regression_table(fit, "json"),
             f"regression_{args.outcome}.csv": report.render_regression_table(fit, "csv"),
             f"regression_{args.outcome}.md": report.render_regression_table(fit, "markdown")}
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(out_dir / f"fit_{args.outcome}.json")
    return EXIT_OK


def cmd_decompose(args) -> int:
    out_dir = Path(args.out)
    obs = _observations(out_dir, args.outcome)
    table = model.decomposition_table(obs, reference=args.reference)
    payload = {
        "outcome": args.outcome,
        "reference": args.reference,
        "rows": report.decomposition_records(table),
    }
    stem = out_dir / f"decomposition_{args.outcome}"
    for suffix, text in ((".json", json.dumps(payload, indent=2, sort_keys=True)),
                         (".csv", report.render_decomposition_table(table, "csv")),
                         (".md", report.render_decomposition_table(table, "markdown"))):
        stem.with_suffix(suffix).write_text(text, encoding="utf-8")
    print(stem.with_suffix(".csv"))
    return EXIT_OK


def _metric_csv_aggregates(path: Path) -> dict:
    """Cell means of the metric columns of ``metrics.csv`` or a variant file."""
    return report.cell_means(*_read_table(path, metrics.COLUMNS)[1:])


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    baseline = _metric_csv_aggregates(out_dir / "metrics.csv")
    variants = {}
    for path in sorted(out_dir.glob("metrics_*.csv")):
        name = path.stem[len("metrics_"):]
        variants[name] = _metric_csv_aggregates(path)
    for fmt, suffix in (("csv", ".csv"), ("json", ".json"), ("markdown", ".md")):
        text = report.render_comparison_table(baseline, variants, fmt)
        (out_dir / f"comparison{suffix}").write_text(text, encoding="utf-8")
    print(out_dir / "comparison.csv")
    return EXIT_OK


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _duration(text: str) -> float:
    """An argparse type: finite seconds that give synth at least one sample."""
    value = float(text)
    if not (np.isfinite(value) and round(value * synth.RATE) >= 1):
        raise argparse.ArgumentTypeError(
            f"must be finite and give at least one sample at {synth.RATE} Hz, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vda", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterances", type=_count, default=16)
    p.add_argument("--duration", type=_duration, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("metrics", help="score every manifest pair")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=",".join(metrics.METRIC_NAMES))
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("features", help="extract feature errors per pair")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("fit", help="fit the interaction regression")
    p.add_argument("--out", required=True)
    p.add_argument("--outcome", choices=OUTCOMES, default="stoi")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("decompose", help="three-fold decomposition per interaction")
    p.add_argument("--out", required=True)
    p.add_argument("--outcome", choices=OUTCOMES, default="stoi")
    p.add_argument("--reference", choices=("stratum", "zero-error"), default="stratum")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("report", help="baseline vs variant comparison tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    _set_process_policy()
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
