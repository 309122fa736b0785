"""Command-line pipeline: validate | synth | metrics | features | fit | decompose | report.

Stages communicate through files in the --out directory so each one can be
rerun independently; reruns on unchanged inputs are byte-identical. Exit
codes: 0 success, 1 usage/schema, 2 data, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import itertools
import os
import re
import sys
import warnings
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import corpus
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

# Each command imports the vda modules it runs, at its top: importing one
# after a table or WAV is read moves the heap layout, and with it the peak RSS.
# Here they are imported for the annotations alone.
if TYPE_CHECKING:
    from . import features, model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_MAX_LAG_SECONDS = 0.25

# The row key that leads every table; metrics.csv carries corpus.METRIC_COLUMNS
# after it, errors.csv the ERROR_COLUMNS and both features_*.csv FEATURE_COLUMNS.
KEY_COLUMNS = ("utterance_id", "G", "C", "D")
ERROR_COLUMNS = tuple(f"e{i}" for i in range(corpus.N_FEATURES))
FEATURE_COLUMNS = tuple(f"x{i}" for i in range(corpus.N_FEATURES))

OUTCOMES = ("stoi", "pesq")

# The G/C/D cells of a valid table row, as text, each mapped to its row of _CONDITION_LABELS.
_CONDITION_INDEX = {tuple(map(str, cell.as_tuple())): i for i, cell in enumerate(corpus.ALL_CELLS)}
_CONDITION_LABELS = np.array([cell.as_tuple() for cell in corpus.ALL_CELLS])

# Exception classes -> exit code, first match wins. Used by main and, for
# failed rows, by the metrics and features stages.
_EXIT_CODES = (
    ((SchemaError, ValueError), EXIT_USAGE),
    ((FormatError, UnsupportedFormatError, DependencyError,
      StratificationError, OSError), EXIT_DATA),
    ((DegenerateInputError, PreconditionError, UnderdeterminedError,
      AlignmentError, MetricError), EXIT_NUMERIC),
    ((VdaError,), EXIT_DATA),
)


def _exit_code(exc: Exception) -> int | None:
    return next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), None)


def _log(level: str, msg: str, *args) -> None:
    """Log ``msg % args`` at ``level`` ("debug", "warning" or "error") on the
    "vda" logger, at the level that VDA_LOG names (WARNING if it names none).

    logging is imported and configured by the first record that can be shown,
    so a stage that logs no warning or error, run without VDA_LOG, never loads it.
    """
    if level == "debug" and "VDA_LOG" not in os.environ:
        return
    import logging

    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("vda")
    try:
        log.setLevel(os.environ.get("VDA_LOG", "WARNING").upper())
    except ValueError:
        log.setLevel(logging.WARNING)
    getattr(log, level)(msg, *args)


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
    from . import metrics  # loaded by cmd_metrics, or here in a --jobs worker

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
    from . import features  # loaded by cmd_features, or here in a --jobs worker

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
    """Keep freed arrays in the heap, unless one of _BLAS_THREAD_VARS is set
    run the OpenBLAS that numpy loaded on one thread, and freeze the heap
    that start-up made.

    glibc otherwise unmaps each block over its mmap threshold on free and
    trims the heap top, so every FFT buffer of a long recording is faulted
    in again page by page; setting either threshold alone turns off the
    dynamic one, and the other default still returns the memory. OpenBLAS
    otherwise keeps a thread per core spinning beside a stage that gains
    nothing from it, and it reads the environment only when numpy loads, so
    its own setter is called. gc.freeze moves the objects of the imports out
    of the collector's generations, so neither the collections of a run nor
    those at exit walk them again. main and the --jobs workers' initializer
    call this; library use of vda does not. Each part does nothing where its
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
    gc.freeze()


def _map_jobs(func, items, jobs: int):
    if jobs <= 1:
        return [func(item) for item in items]
    import multiprocessing  # kept off the --jobs 1 start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs, multiprocessing.get_context("spawn"), _set_process_policy) as pool:
        return list(pool.map(func, items))


def _csv_text(header: tuple[str, ...], rows: list[tuple]) -> str:
    """``rows`` under ``header`` as CSV; a short row (a failed one) ends in blank cells."""
    from . import report

    return report.csv_text(header, [row + (None,) * (len(header) - len(row)) for row in rows])


def _write_outputs(out_dir: Path, texts: dict[str, str]) -> None:
    """Write each of ``texts`` to its file name in ``out_dir`` and print the
    first one's path. A stage renders every text before it calls this, so
    one that cannot render a table leaves no files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(out_dir / next(iter(texts)))


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
    from . import synth

    manifest_path = synth.generate_corpus(
        args.out, n_utterances=args.utterances, seed=args.seed, duration=args.duration
    )
    print(manifest_path)
    return EXIT_OK


def cmd_metrics(args) -> int:
    from . import metrics, report  # report renders metrics.csv

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
        _log("error", "metrics failed for %s", msg)
    _write_outputs(Path(args.out), {"metrics.csv": _csv_text(KEY_COLUMNS + corpus.METRIC_COLUMNS,
                                                             [row for row, _ in results])})
    return failures[0][0] if failures else EXIT_OK


def cmd_features(args) -> int:
    from . import features, report  # _feature_row runs features; report renders the CSVs

    entries = _sorted_entries(args.manifest)
    groups = [list(group) for _, group in itertools.groupby(entries, lambda e: e.clean_path)]
    results = [row for rows in _map_jobs(_feature_rows, groups, args.jobs) for row in rows]
    failures = [failure for *_rows, failure in results if failure]
    for _, msg in failures:
        _log("error", "features failed for %s", msg)
    _write_outputs(Path(args.out), {
        "errors.csv": _csv_text(KEY_COLUMNS + ERROR_COLUMNS, [r[0] for r in results]),
        "features_clean.csv": _csv_text(KEY_COLUMNS + FEATURE_COLUMNS, [r[1] for r in results]),
        "features_degraded.csv": _csv_text(KEY_COLUMNS + FEATURE_COLUMNS, [r[2] for r in results])})
    return failures[0][0] if failures else EXIT_OK


def _key_name(key: tuple[str, ...]) -> str:
    from .report import condition_name

    return f"{key[0]} {condition_name(*key[1:])}"


# Rows per np.loadtxt call of _parse_table. A block is held as one Python
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
    values = np.full(texts.shape, np.nan)
    try:
        values[written] = texts[written].astype(np.float64)
        return values, written, None
    except ValueError:
        for (i, j), text in np.ndenumerate(texts):
            try:
                float(text or "nan")
            except ValueError as exc:
                return values, written, (i, j, str(exc))
        raise


_Table = tuple[list[tuple], np.ndarray, np.ndarray]  # keys, labels, values, as _parse_table returns them

# The parsed copy of the model input, in --out: a dotfile, which no metrics_*.csv glob matches.
_OBSERVATIONS_COPY = ".observations.npy"
# The tag that leads what the copy's key hashes; a change to the copy's layout,
# or to what _parse_table or _join returns, needs a new one.
_OBSERVATIONS_FORMAT = b"vda observations 1"
_HASH_CHUNK_BYTES = 2 ** 20

# The model input as _join gives it and the copy holds it: the kept rows' e
# (n, 26), G/C/D labels (n, 3) and OUTCOMES columns (n, 2); the
# [table, key name, reason] of each skipped row; and, if a kept row has no
# pesq, [their count, the first one's key name, its metrics.csv data row], else [].
_Joined = tuple[np.ndarray, np.ndarray, np.ndarray, list, list]


def _digest(parts) -> bytes:
    """The blake2b digest of the byte strings ``parts``."""
    # hashlib's blake2b from its own module: importing hashlib also loads
    # OpenSSL, 3.6 MB of RSS at a stage's peak
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    digest = blake2b()
    for part in parts:
        digest.update(part)
    return digest.digest()


def _table_digest(path: Path) -> bytes:
    """The digest of the bytes of the table ``path``, read in chunks."""
    with open(path, "rb") as fh:
        return _digest(iter(lambda: fh.read(_HASH_CHUNK_BYTES), b""))


def _checksum(arrays) -> np.ndarray:
    """The CRC-32 of the bytes of ``arrays``, which ends the parsed copy."""
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return np.array(crc, np.int64)


def _load_observations(copy: Path, key: bytes) -> tuple[_Joined | None, str]:
    """The model input in the parsed copy ``copy`` if its key is ``key`` and
    its checksum holds, else None; and what became of the copy."""
    import json

    try:
        with open(copy, "rb") as fh:
            if np.load(fh).tobytes() != key:
                return None, "stale"
            arrays = [np.load(fh) for _ in range(4)]
            if np.load(fh) != _checksum(arrays) or fh.read(1):
                return None, "damaged (checksum)"
        e, labels, outcomes, notes = arrays
        skipped, no_pesq = json.loads(notes.tobytes())
    except FileNotFoundError:
        return None, "missing (FileNotFoundError)"
    # any failure is parsed around: besides OSError, np.load of a damaged
    # header raises ValueError, EOFError, tokenize's TokenError or MemoryError
    except Exception as exc:
        return None, f"damaged ({type(exc).__name__})"
    return (e, labels, outcomes, skipped, no_pesq), "loaded"


def _parse_table(path: Path, columns: tuple[str, ...]) -> _Table:
    """The keys, the (n, 3) 0/1 G/C/D labels and the (n, len(columns))
    values of the non-blank rows of ``path``, a table led by ``KEY_COLUMNS``.

    csv.reader reads the header; numpy's tokenizer reads the rows as text,
    ``_TABLE_BLOCK_ROWS`` at a time, and float() reads each value cell. A
    blank cell and a column missing from the header read as NaN. A file that
    is not UTF-8, a header cell over csv's field limit and a row too short
    for a key or a requested column are FormatErrors naming the file. So are,
    in this order, a G/C/D cell other than ``0`` or ``1``, a repeated key, a
    cell that float() refuses and a written cell that is not finite; these
    also name the row, and the column of a bad cell. A missing file is a
    DependencyError.
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


def _join(m_path: Path, e_path: Path) -> tuple[_Joined, list[tuple], np.ndarray]:
    """Parse both tables and join each metrics.csv row to its errors.csv row.

    Returns the model input, the keys of metrics.csv and the indices of the
    kept rows among them. A row is skipped when errors.csv has no full row
    for its key, or when its stoi is blank.
    """
    keys, labels, outcomes = _parse_table(m_path, OUTCOMES)
    e_keys, _, e = _parse_table(e_path, ERROR_COLUMNS)
    e_row = dict(zip(e_keys, range(len(e_keys))))
    # a key without an errors.csv row points one past its last row
    at = np.fromiter(map(e_row.get, keys, itertools.repeat(len(e_keys))), np.intp, len(keys))
    no_errors = np.append(np.isnan(e).any(axis=1), True)[at]
    skipped = no_errors | np.isnan(outcomes[:, 0])  # stoi leads OUTCOMES
    notes = [[e_path.name, _key_name(keys[i]), "no feature errors"] if no_errors[i]
             else [m_path.name, _key_name(keys[i]), "no stoi value"] for i in np.flatnonzero(skipped)]
    kept = np.flatnonzero(~skipped)
    # a blank pesq: rows without stoi are skipped above
    no_pesq = kept[np.isnan(outcomes[kept, OUTCOMES.index("pesq")])]
    pesq_note = [len(no_pesq), _key_name(keys[no_pesq[0]]), int(no_pesq[0]) + 1] if len(no_pesq) else []
    return (e[at[kept]], labels[kept], outcomes[kept], notes, pesq_note), keys, kept


def _observations(out_dir: Path, outcome: str) -> tuple[model.Observations, tuple | None]:
    """The model input: each metrics.csv row joined to its errors.csv row;
    and, after a parse, what ``_write_observations`` needs: the key (or why
    the copy cannot be written), the joined input and how it was read.

    The input comes from the parsed copy in ``out_dir`` (``_OBSERVATIONS_COPY``)
    when the copy's key is the digest of ``_OBSERVATIONS_FORMAT`` and both
    tables' digests, and from ``_join`` otherwise; a missing, stale or damaged
    copy is parsed around. Either way the skipped rows are logged, and the
    same checks run. With VDA_LOG at DEBUG, a load is logged here.
    """
    from . import model

    paths = m_path, e_path = out_dir / "metrics.csv", out_dir / "errors.csv"
    copy = out_dir / _OBSERVATIONS_COPY
    try:
        stamps = [(st.st_size, st.st_mtime_ns) for st in map(Path.stat, paths)]
        key = _digest([_OBSERVATIONS_FORMAT, *map(_table_digest, paths)])
    except OSError as exc:  # the parse raises it again, or that a table is missing
        joined, state, key = None, f"not looked up ({type(exc).__name__})", "a table could not be hashed"
    else:
        joined, state = _load_observations(copy, key)
    parse = None
    if joined is None:
        joined, keys, kept = _join(m_path, e_path)
        if isinstance(key, bytes) and stamps != [(st.st_size, st.st_mtime_ns)
                                                 for st in map(Path.stat, paths)]:
            key = "a table changed while it was read"
        parse = key, joined, f"{state}, parsed around"
    else:
        _log("debug", "%s: %s", copy, state)
    e, labels, outcomes, skipped, no_pesq = joined
    for name, key_name, reason in skipped:
        _log("warning", "%s: %s: %s; row skipped", out_dir / name, key_name, reason)
    if not len(e):
        raise DependencyError("no joinable rows between metrics.csv and errors.csv")
    if outcome == "pesq" and no_pesq:
        count, key_name, row = no_pesq
        raise DependencyError(f"{count} row(s) lack an external pesq value "
                              f"(first {key_name}, metrics.csv data row {row})")
    try:
        obs = model.Observations(e, labels, outcomes[:, OUTCOMES.index(outcome)])
    # only e can fail (_parse_table checked the labels and y), and only on a
    # parse: a copy holds rows that passed
    except model.ObservationError as exc:
        raise FormatError(f"{e_path}: {_key_name(keys[kept[exc.row]])}: {exc.reason}") from None
    return obs, parse


def _write_observations(out_dir: Path, parse: tuple | None) -> None:
    """Write the parsed copy of ``parse``, as ``_observations`` returned it,
    to ``out_dir``; the model stages call this after their outputs, so a
    stage that fails writes no copy.

    The copy is written to a temp file and moved into place. One that cannot
    be written is skipped, and every temp file of the copy is removed, also
    one that a killed stage left (a live stage's move then fails, and its
    copy is not written). With VDA_LOG at DEBUG one line says how the input
    was read and whether the copy was written. The copy is .npy arrays in a
    row: the key, e, labels and outcomes, the UTF-8 JSON of the notes, and
    the checksum of the four before it.
    """
    if parse is None:  # the copy was loaded
        return
    import glob  # not at module level: it raised the audio stages' peak RSS by 0.1 MB
    import json

    key, (*arrays, skipped, no_pesq), note = parse
    copy = out_dir / _OBSERVATIONS_COPY
    if isinstance(key, str):
        outcome = f"not written: {key}"
    else:
        temp = copy.with_name(f"{copy.name}.{os.getpid()}.tmp")
        arrays.append(np.frombuffer(json.dumps([skipped, no_pesq]).encode("utf-8"), np.uint8))
        try:
            with open(temp, "wb") as fh:
                for array in (np.frombuffer(key, np.uint8), *arrays, _checksum(arrays)):
                    np.save(fh, array, allow_pickle=False)
            os.replace(temp, copy)
            outcome = "written"
        except OSError as exc:
            outcome = f"not written: {exc}"
    for temp in out_dir.glob(f"{glob.escape(copy.name)}.*.tmp"):
        with contextlib.suppress(OSError):
            temp.unlink()
    _log("debug", "%s: %s; %s", copy, note, outcome)


def cmd_fit(args) -> int:
    from . import model, report

    out_dir = Path(args.out)
    obs, parse = _observations(out_dir, args.outcome)
    fit = model.fit_interactions(obs)
    texts = report.render_regression_table(fit)
    _write_outputs(out_dir, {f"{'fit' if s == '.json' else 'regression'}_{args.outcome}{s}": text
                             for s, text in texts.items()})
    _write_observations(out_dir, parse)
    return EXIT_OK


def cmd_decompose(args) -> int:
    from . import model, report

    out_dir = Path(args.out)
    obs, parse = _observations(out_dir, args.outcome)
    table = model.decomposition_table(obs, reference=args.reference)
    texts = report.render_decomposition_table(table, args.outcome, args.reference)
    # the stratum set keeps the plain name, so the two references never share a file
    stem = f"decomposition_{args.outcome}" + ("" if args.reference == "stratum" else "_zero-error")
    _write_outputs(out_dir, {stem + suffix: text for suffix, text in texts.items()})
    _write_observations(out_dir, parse)
    return EXIT_OK


def _metric_csv_aggregates(path: Path) -> dict:
    """Cell means of the metric columns of ``metrics.csv`` or a variant file,
    parsed: no stage reads or writes a parsed copy of every metric column."""
    from . import report

    return report.cell_means(*_parse_table(path, corpus.METRIC_COLUMNS)[1:])


def cmd_report(args) -> int:
    from . import report

    out_dir = Path(args.out)
    baseline = _metric_csv_aggregates(out_dir / "metrics.csv")
    variants = {path.stem[len("metrics_"):]: _metric_csv_aggregates(path)
                for path in sorted(out_dir.glob("metrics_*.csv"))}
    texts = report.render_comparison_table(baseline, variants)
    _write_outputs(out_dir, {f"comparison{suffix}": text for suffix, text in texts.items()})
    return EXIT_OK


def _count(text: str) -> int:
    """An argparse type: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _duration(text: str) -> float:
    """An argparse type: finite seconds that give synth at least one sample."""
    from . import synth

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
    # metrics.METRIC_NAMES, written out so that the parser does not load metrics
    p.add_argument("--metrics", default="stoi,snr_seg,fw_snr_seg,llr,wss,csii,ncm,composite")
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
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
