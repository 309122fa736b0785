import csv
import inspect
import io
import json
import math
import os
import platform
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vda import cli, corpus, features, metrics, report
from vda.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from vda.errors import FormatError, SchemaError, VdaError

from conftest import make_speech_like, noisy_pair, peak_memory
from test_corpus import _DATA_START, _FMT_FIELDS, _SIZE_FIELDS, _wav_bytes
from test_golden import GOLDEN


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(root), "--seed", "3", "--utterances", "2"]) == EXIT_OK
    return root


@pytest.fixture(scope="module")
def pipeline_out(small_corpus):
    out = small_corpus / "out"
    manifest = str(small_corpus / "manifest.csv")
    assert main(["metrics", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    assert main(["features", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert main(["decompose", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert main(["report", "--out", str(out)]) == EXIT_OK
    return out


def test_cli_import_leaves_out_scipy_signal_and_stats():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, vda.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'])))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _child_env(**env):
    """This process's environment without VDA_LOG, plus ``env`` and vda on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    environ = {k: v for k, v in os.environ.items() if k != "VDA_LOG"}
    environ.update(env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return environ


def _loaded_modules(args, entry="from vda.cli import main"):
    """Run ``python -c`` with ``args`` in ``_child_env()``: the import
    ``entry``, then ``main(args)`` if ``args`` is not empty; return the
    modules the process had loaded when it ended."""
    probe = ("import json, sys\n"
             f"{entry}\n"
             "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
             "print(json.dumps(sorted(sys.modules)))\n"
             "sys.exit(code)\n")
    out = subprocess.run([sys.executable, "-c", probe, *args], env=_child_env(),
                         capture_output=True, text=True)
    assert out.returncode == EXIT_OK, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _heavy_modules(modules):
    """The scipy, ``numpy.ma`` and ``dataclasses`` modules of ``modules``;
    vda's types write out their methods, so importing vda generates none."""
    return [m for m in modules if m.split(".")[0] in ("scipy", "dataclasses")
            or m.split(".")[:2] == ["numpy", "ma"]]


@pytest.fixture(scope="module")
def stage_modules(small_corpus, tmp_path_factory):
    """The modules that each pipeline stage loads, run in order on a fresh --out."""
    manifest = str(small_corpus / "manifest.csv")
    out = str(tmp_path_factory.mktemp("stages") / "out")
    return {
        stage: _loaded_modules([stage, *args, "--out", out])
        for stage, args in (("metrics", ["--manifest", manifest]),
                            ("features", ["--manifest", manifest]),
                            ("fit", []), ("decompose", []), ("report", []))
    }


def test_cli_import_loads_no_scipy():
    assert _heavy_modules(_loaded_modules([])) == []


def test_stages_load_only_the_scipy_they_run(stage_modules):
    for stage, modules in stage_modules.items():
        assert _heavy_modules(modules) == [], stage


# The vda modules that hold the audio stages' code: metrics, features and what they run.
AUDIO_CODE = {"vda.metrics", "vda.features", "vda.dsp", "vda.kernels", "vda.synth"}


def test_stages_load_only_the_vda_modules_they_run(stage_modules):
    # each stage imports what it runs; logging loads only for a record that
    # can be shown, and a clean run without VDA_LOG shows none
    assert [m for m in _loaded_modules([], "import vda") if m.startswith("vda.")] == []
    assert not ({"logging", "vda.model", "vda.report"} | AUDIO_CODE) & set(_loaded_modules([]))
    loaded = {stage: set(modules) for stage, modules in stage_modules.items()}
    assert not AUDIO_CODE & loaded["fit"]
    assert not AUDIO_CODE & loaded["decompose"]
    assert not AUDIO_CODE & loaded["report"]
    assert not {"vda.model", "vda.features", "vda.synth"} & loaded["metrics"]
    assert not {"vda.model", "vda.metrics", "vda.synth"} & loaded["features"]
    for stage, modules in loaded.items():
        assert "logging" not in modules, stage


def test_model_stages_leave_out_openssl(pipeline_out, tmp_path):
    # importing hashlib loads OpenSSL's _hashlib, 3.6 MB of a model stage's
    # peak RSS; the parsed copy's key takes blake2b from _blake2 instead
    assert not {"_blake2", "hashlib", "_hashlib"} & set(_loaded_modules([]))
    out = str(_copy_stage_inputs(pipeline_out, tmp_path / "out"))
    for stage in ("fit", "decompose", "report"):
        assert "_hashlib" not in _loaded_modules([stage, "--out", out]), stage


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy loaded, None under another BLAS."""
    import ctypes

    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(blas, name):
            return getattr(blas, name)()
    return None


def _refaulted_pages(_item=None) -> tuple[float, int | None]:
    """The minor faults of a second allocate-touch-free of a 16 MiB array,
    per page of it, and this process's OpenBLAS thread count."""
    import resource

    n_bytes = 16 * 2 ** 20
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        np.ones(n_bytes // 8)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults / (n_bytes / resource.getpagesize()), _blas_threads()


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
openblas_only = pytest.mark.skipif(_blas_threads() is None, reason="numpy did not load OpenBLAS")


@glibc_only
def test_freed_arrays_stay_in_the_heap():
    cli._set_process_policy()
    assert _refaulted_pages()[0] < 0.01


@glibc_only
@openblas_only
def test_jobs_workers_keep_freed_arrays_and_one_blas_thread(monkeypatch):
    for name in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    environ = dict(os.environ)
    for refaulted, worker_blas_threads in cli._map_jobs(_refaulted_pages, [0, 1], 2):
        assert refaulted < 0.01
        assert worker_blas_threads == 1
    assert dict(os.environ) == environ


def test_main_freezes_the_start_up_heap(small_corpus):
    # importing vda.cli freezes nothing; main's process policy freezes what start-up made
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import gc, sys\n"
             "from vda.cli import main\n"
             "before = gc.get_freeze_count()\n"
             "code = main(sys.argv[1:])\n"
             "print(before, gc.get_freeze_count())\n"
             "sys.exit(code)\n")
    args = ["validate", "--manifest", str(small_corpus / "manifest.csv")]
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True)
    assert out.returncode == EXIT_OK, out.stderr
    before, after = map(int, out.stdout.split()[-2:])
    assert before == 0 and after > 0


def test_failing_stage_writes_its_error_to_stderr_once(tmp_path):
    # a fresh interpreter, where the vda logger writes to stderr: fit on a
    # directory without metrics.csv prints the error line and logs nothing more
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-m", "vda.cli", "fit", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == EXIT_DATA
    assert out.stderr == f"error: required upstream artifact missing: {tmp_path / 'metrics.csv'}\n"


def _stage_process(args, **env):
    """``python -m vda.cli`` with ``args`` in a fresh interpreter, in ``_child_env(**env)``."""
    return subprocess.run([sys.executable, "-m", "vda.cli", *args], env=_child_env(**env),
                          capture_output=True, text=True)


def test_vda_log_sets_the_stage_log_level(pipeline_out, tmp_path):
    # VDA_LOG names the level of the "vda" logger, whose records go to stderr
    # as "LEVEL vda: message"; a name logging does not know means WARNING
    fresh = _copy_stage_inputs(pipeline_out, tmp_path / "fresh")
    # each model stage says at DEBUG what became of the parsed copy
    copy = fresh / ".observations.npy"
    for stage, line in (("fit", "missing (FileNotFoundError), parsed around; written"),
                        ("decompose", "loaded")):
        debug = _stage_process([stage, "--out", str(fresh)], VDA_LOG="DEBUG")
        assert debug.returncode == EXIT_OK, debug.stderr
        assert debug.stderr == f"DEBUG vda: {copy}: {line}\n", stage

    # a skipped row's warning reads the same from a parse and from the copy
    skipping = _copy_stage_inputs(pipeline_out, tmp_path / "skipping")
    blank = _set_cells(skipping / "errors.csv", 3, dict.fromkeys(cli.ERROR_COLUMNS, ""))
    row = f"{blank['utterance_id']} G{blank['G']}C{blank['C']}D{blank['D']}"
    for read in ("cold", "warm"):
        assert (skipping / ".observations.npy").exists() == (read == "warm")
        loud = _stage_process(["fit", "--out", str(skipping)], VDA_LOG="loud")
        assert loud.returncode == EXIT_OK, loud.stderr
        assert loud.stderr == f"WARNING vda: {skipping / 'errors.csv'}: {row}: no feature errors; row skipped\n"

    failed = _stage_process(["metrics", "--manifest", str(_short_pair_manifest(tmp_path)),
                             "--out", str(tmp_path / "out")])
    assert failed.returncode == EXIT_NUMERIC
    assert failed.stderr == "ERROR vda: metrics failed for u1 G1C0D1: stoi: pair must last at least 384 ms\n"


def test_metrics_option_defaults_to_every_metric():
    # the parser writes the default out, so that it need not load vda.metrics
    args = cli.build_parser().parse_args(["metrics", "--manifest", "m.csv", "--out", "out"])
    assert args.metrics == ",".join(metrics.METRIC_NAMES)


@openblas_only
@pytest.mark.parametrize("blas_env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_stage_blas_threads(small_corpus, tmp_path, blas_env, threads):
    # a fresh interpreter runs the features stage through main with none of
    # the variables OpenBLAS reads set but blas_env: one thread, unless the
    # user set a count
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARS}
    env.update(blas_env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys\n"
             "import numpy as np\n"
             "from vda.cli import main\n"
             + inspect.getsource(_blas_threads) +
             "before = _blas_threads()\n"
             "code = main(sys.argv[1:])\n"
             "print(before, _blas_threads())\n"
             "sys.exit(code)\n")
    args = ["features", "--manifest", str(small_corpus / "manifest.csv"), "--out", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True)
    assert out.returncode == EXIT_OK, out.stderr
    before, after = map(int, out.stdout.split()[-2:])
    if before < threads:
        pytest.skip(f"OpenBLAS started with {before} thread(s) on this host")
    assert after == threads


def test_synth_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--out", str(a), "--seed", "5", "--utterances", "1"]) == EXIT_OK
    assert main(["synth", "--out", str(b), "--seed", "5", "--utterances", "1"]) == EXIT_OK
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    wav = "wav/utt000_g1c0d1.wav"
    assert (a / wav).read_bytes() == (b / wav).read_bytes()


def test_validate_ok(small_corpus):
    assert main(["validate", "--manifest", str(small_corpus / "manifest.csv")]) == EXIT_OK


def test_validate_missing_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text(
        "utterance_id,clean_path,degraded_path,G,C,D,pesq\nu1,gone.wav,gone2.wav,0,0,0,\n"
    )
    assert main(["validate", "--manifest", str(path)]) == EXIT_DATA
    out = capsys.readouterr().out
    assert "gone.wav" in out


def test_validate_malformed_schema(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n")
    assert main(["validate", "--manifest", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize("row,message", [
    ("u1,wav/c.wav,wav/d.wav,0,0,0,nan", "m.csv: data row 1: column pesq must be finite, got 'nan'"),
    ("u1,wav/c.wav,,0,0,0,", "m.csv: data row 1: column degraded_path must name a file, got ''"),
], ids=["pesq-nan", "blank-degraded-path"])
def test_validate_rejects_unusable_manifest_row(small_corpus, tmp_path, capsys, row, message):
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    for name in ("c.wav", "d.wav"):
        (wav_dir / name).write_bytes((small_corpus / "wav" / "utt000_g0c0d0.wav").read_bytes())
    path = tmp_path / "m.csv"
    path.write_text("utterance_id,clean_path,degraded_path,G,C,D,pesq\n" + row + "\n")
    assert main(["validate", "--manifest", str(path)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["metrics", "features"])
def test_repeated_manifest_key_is_data_error(small_corpus, tmp_path, capsys, stage):
    # a pair listed twice is refused before any pair is scored: no table is written
    entries = corpus.parse_manifest(small_corpus / "manifest.csv").entries
    path = tmp_path / "m.csv"
    corpus.write_manifest(path, corpus.CorpusManifest(entries[:3] + entries[1:2]))
    label = entries[1].label
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert main([stage, "--manifest", str(path), "--out", str(out)]) == EXIT_DATA
    assert (f"{path}: {entries[1].utterance_id} G{label.g}C{label.c}D{label.d}: "
            "repeated on data rows 2 and 4") in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_metrics_csv_shape(pipeline_out):
    with open(pipeline_out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16  # 2 utterances x 8 cells
    keys = [(r["utterance_id"], r["G"], r["C"], r["D"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["stoi"] for r in rows)
    assert all(r["csig"] for r in rows)  # pesq column present in synth manifest


def test_metrics_rerun_byte_identical(small_corpus, pipeline_out, tmp_path):
    manifest = str(small_corpus / "manifest.csv")
    again = tmp_path / "again"
    assert main(["metrics", "--manifest", manifest, "--out", str(again)]) == EXIT_OK
    assert (again / "metrics.csv").read_bytes() == (pipeline_out / "metrics.csv").read_bytes()


def test_metrics_parallel_jobs_identical(small_corpus, pipeline_out, tmp_path):
    manifest = str(small_corpus / "manifest.csv")
    par = tmp_path / "par"
    assert main(["metrics", "--manifest", manifest, "--out", str(par), "--jobs", "2"]) == EXIT_OK
    assert (par / "metrics.csv").read_bytes() == (pipeline_out / "metrics.csv").read_bytes()


def test_features_parallel_jobs_identical(small_corpus, pipeline_out, tmp_path):
    manifest = str(small_corpus / "manifest.csv")
    par = tmp_path / "par"
    assert main(["features", "--manifest", manifest, "--out", str(par), "--jobs", "2"]) == EXIT_OK
    for name in ("errors.csv", "features_clean.csv", "features_degraded.csv"):
        assert (par / name).read_bytes() == (pipeline_out / name).read_bytes(), name


def test_metrics_selection_blank_columns(small_corpus, tmp_path):
    manifest = str(small_corpus / "manifest.csv")
    out = tmp_path / "sel"
    assert main(["metrics", "--manifest", manifest, "--out", str(out),
                 "--metrics", "snr_seg"]) == EXIT_OK
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["snr_seg"] for r in rows)
    assert all(not r["stoi"] for r in rows)


def test_metrics_unknown_selection(small_corpus, tmp_path):
    assert main(["metrics", "--manifest", str(small_corpus / "manifest.csv"),
                 "--out", str(tmp_path / "x"), "--metrics", "bogus"]) == EXIT_USAGE


def _assert_failed_row_blank(path, key):
    """The one row of ``path`` is ``key`` followed by a blank cell under every other column."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows == [key + [""] * (len(header) - len(key))]


def test_metrics_failure_marks_row(tmp_path):
    # one pair too short for the envelope metrics: row blank, exit numeric
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    rng = np.random.default_rng(0)
    short = corpus.AudioSignal(0.1 * rng.standard_normal(3200), 16000)
    corpus.write_wav(wav_dir / "c.wav", short)
    corpus.write_wav(wav_dir / "d.wav", short)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
        "u1,wav/c.wav,wav/d.wav,0,0,0,\n"
    )
    out = tmp_path / "out"
    assert main(["metrics", "--manifest", str(manifest), "--out", str(out)]) == EXIT_NUMERIC
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["utterance_id"] == "u1"
    assert not rows[0]["stoi"]
    _assert_failed_row_blank(out / "metrics.csv", ["u1", "0", "0", "0"])


def _short_pair_manifest(root):
    """A manifest under ``root`` of one pair, u1 G1C0D1, whose two sides last 50 ms."""
    (root / "wav").mkdir()
    short = corpus.AudioSignal(0.1 * np.random.default_rng(0).standard_normal(800), 16000)
    corpus.write_wav(root / "wav" / "c.wav", short)
    corpus.write_wav(root / "wav" / "d.wav", short)
    manifest = root / "m.csv"
    manifest.write_text("utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
                        "u1,wav/c.wav,wav/d.wav,1,0,1,\n")
    return manifest


@pytest.mark.parametrize("stage,outputs,reason", [
    ("metrics", ("metrics.csv",), "stoi: pair must last at least 384 ms"),
    ("features", ("errors.csv", "features_clean.csv", "features_degraded.csv"),
     "utterance must last at least 100 ms"),
])
def test_too_short_pair_is_numeric_failure(tmp_path, caplog, stage, outputs, reason):
    # a WAV that loads but is too short to analyse is valid data that fails
    # an analysis precondition: exit 3, not 2
    manifest = _short_pair_manifest(tmp_path)
    out = tmp_path / "out"
    assert main([stage, "--manifest", str(manifest), "--out", str(out)]) == EXIT_NUMERIC
    assert f"u1 G1C0D1: {reason}" in caplog.text
    for name in outputs:
        _assert_failed_row_blank(out / name, ["u1", "1", "0", "1"])


def test_features_corrupt_wav_is_data_error(small_corpus, tmp_path):
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    (wav_dir / "c.wav").write_bytes((small_corpus / "wav" / "utt000_g0c0d0.wav").read_bytes())
    (wav_dir / "d.wav").write_bytes(b"RIFF\x04\x00\x00\x00junk")
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
        "u1,wav/c.wav,wav/d.wav,0,0,0,\n"
    )
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
    with open(out / "errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["utterance_id"] == "u1"
    assert not rows[0]["e0"]
    for name in ("errors.csv", "features_clean.csv", "features_degraded.csv"):
        _assert_failed_row_blank(out / name, ["u1", "0", "0", "0"])


@pytest.mark.parametrize("path", ["metrics-out-is-a-file", "manifest-is-a-directory",
                                  "errors-csv-is-a-directory"])
def test_path_that_cannot_be_read_or_written_is_data_error(small_corpus, pipeline_out, tmp_path,
                                                           capsys, path):
    # an OSError exits 2 with one "error:" line, not a traceback
    if path == "metrics-out-is-a-file":
        (tmp_path / "notadir").write_text("")
        args = ["metrics", "--manifest", str(small_corpus / "manifest.csv"),
                "--out", str(tmp_path / "notadir"), "--metrics", "snr_seg"]
    elif path == "manifest-is-a-directory":
        args = ["metrics", "--manifest", str(tmp_path), "--out", str(tmp_path / "out")]
    else:
        out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
        (out / "errors.csv").unlink()
        (out / "errors.csv").mkdir()
        args = ["fit", "--out", str(out)]
    capsys.readouterr()
    assert main(args) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1, err


FEATURE_OUTPUTS = ("errors.csv", "features_clean.csv", "features_degraded.csv")


def test_features_analyse_each_clean_file_once(seed7_run, tmp_path, monkeypatch):
    # 16 clean references, each with 8 degraded recordings: one frame-terms
    # pass per reference (every seed-7 lag is positive, so every crop starts
    # at 0) and one per degraded side, against 256 full extractions before
    out, _ = seed7_run
    manifest = str(out.parent / "manifest.csv")
    calls = {"frame_terms": 0, "extract_features": 0}

    def counted(name):
        original = getattr(features, name)

        def wrapper(sig):
            calls[name] += 1
            return original(sig)
        return wrapper

    for name in calls:
        monkeypatch.setattr(features, name, counted(name))
    one = tmp_path / "one"
    assert main(["features", "--manifest", manifest, "--out", str(one)]) == EXIT_OK
    assert calls == {"frame_terms": 16 + 128, "extract_features": 128}
    monkeypatch.undo()
    two = tmp_path / "two"
    assert main(["features", "--manifest", manifest, "--out", str(two), "--jobs", "2"]) == EXIT_OK
    for name in FEATURE_OUTPUTS:
        assert (two / name).read_bytes() == (one / name).read_bytes() == (out / name).read_bytes(), name


def test_feature_rows_equal_the_per_pair_extraction_at_any_lag(small_corpus, tmp_path):
    # four pairs share one clean file; a degraded side cut at its start
    # aligns at a negative lag, so its clean crop starts inside the clean
    # file. Each row is bitwise the extraction of its own aligned pair.
    wav = tmp_path / "wav"
    wav.mkdir()
    shutil.copy(small_corpus / "wav" / "utt000_clean.wav", wav / "c.wav")
    degraded = corpus.load_wav(small_corpus / "wav" / "utt000_g1c0d1.wav")
    cuts = [slice(None), slice(300, None), slice(1000, None), slice(None, -500)]
    lines = ["utterance_id,clean_path,degraded_path,G,C,D,pesq"]
    for i, cut in enumerate(cuts):
        corpus.write_wav(wav / f"d{i}.wav", corpus.AudioSignal(degraded.samples[cut], degraded.rate))
        lines.append(f"utt000,wav/c.wav,wav/d{i}.wav,0,{i // 2},{i % 2},")
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    tables = {name: [list(map(float, row[4:])) for row in csv.reader(_lines(out / name)[1:])]
              for name in FEATURE_OUTPUTS}
    lags = []
    for i in range(len(cuts)):
        pair = corpus.align(cli._load_signal(wav / "c.wav"), cli._load_signal(wav / f"d{i}.wav"),
                            cli._max_lag(corpus.CANONICAL_RATE))
        lags.append(pair.applied_lag)
        fv_clean = features.extract_features(pair.clean)
        fv_degraded = features.extract_features(pair.degraded)
        assert tables["features_clean.csv"][i] == fv_clean.x.tolist()
        assert tables["features_degraded.csv"][i] == fv_degraded.x.tolist()
        assert tables["errors.csv"][i] == features.feature_error(fv_clean, fv_degraded).e.tolist()
    assert len({max(0, -lag) for lag in lags}) == 3  # three crop starts, two of them inside


def _corpus_copy(small_corpus, root):
    shutil.copytree(small_corpus / "wav", root / "wav")
    shutil.copy(small_corpus / "manifest.csv", root / "manifest.csv")
    return root / "manifest.csv"


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name,failed_cells", [
    ("utt000_clean.wav", [(g, c, d) for g in (0, 1) for c in (0, 1) for d in (0, 1)]),
    ("utt000_g0c1d0.wav", [(0, 1, 0)]),
])
def test_corrupt_wav_fails_the_rows_that_read_it(small_corpus, pipeline_out, tmp_path, caplog,
                                                 name, failed_cells):
    # a clean file shared by 8 cells fails those 8 rows, each with the
    # message of its own load; a degraded file fails its row alone
    manifest = _corpus_copy(small_corpus, tmp_path)
    bad = tmp_path / "wav" / name
    bad.write_bytes(b"RIFF\x04\x00\x00\x00junk")
    with pytest.raises(FormatError) as load_error:
        corpus.load_wav(bad)
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
    failed = [f"utt000 G{g}C{c}D{d}" for g, c, d in failed_cells]
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"features failed for {row}: {load_error.value}" for row in failed]
    for output in FEATURE_OUTPUTS:
        got, want = _lines(out / output), _lines(pipeline_out / output)
        assert len(got) == len(want) == 17
        for got_row, want_row in zip(got[1:], want[1:]):
            key = want_row.split(",")[:4]
            if " ".join([key[0], "G{}C{}D{}".format(*key[1:])]) in failed:
                assert got_row == ",".join(key) + "," * features.N_FEATURES
            else:
                assert got_row == want_row


def test_short_crop_fails_its_row_alone(small_corpus, pipeline_out, tmp_path, caplog):
    # two pairs share one clean file: the first pair's degraded side lasts
    # 75 ms, so its crop is too short for the features; the second pair,
    # which uses the frame terms the first one took, is unchanged
    wav = tmp_path / "wav"
    wav.mkdir()
    shutil.copy(small_corpus / "wav" / "utt000_clean.wav", wav / "c.wav")
    shutil.copy(small_corpus / "wav" / "utt000_g0c0d0.wav", wav / "d.wav")
    degraded = corpus.load_wav(small_corpus / "wav" / "utt000_g0c0d1.wav")
    corpus.write_wav(wav / "short.wav", corpus.AudioSignal(degraded.samples[:1200], degraded.rate))
    manifest = tmp_path / "m.csv"
    manifest.write_text("utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
                        "utt000,wav/c.wav,wav/short.wav,0,0,0,\n"
                        "utt000,wav/c.wav,wav/d.wav,1,1,1,\n")
    out = tmp_path / "out"
    assert main(["features", "--manifest", str(manifest), "--out", str(out)]) == EXIT_NUMERIC
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "features failed for utt000 G0C0D0: utterance must last at least 100 ms"]
    for output in FEATURE_OUTPUTS:
        got, want = _lines(out / output), _lines(pipeline_out / output)
        assert got[1] == "utt000,0,0,0" + "," * features.N_FEATURES
        assert got[2].split(",")[4:] == want[1].split(",")[4:]  # utt000 G0C0D0 of the corpus


@pytest.mark.parametrize("stage,outputs", [
    ("metrics", ("metrics.csv",)),
    ("features", ("errors.csv", "features_clean.csv", "features_degraded.csv")),
])
@pytest.mark.parametrize("defect", ["nan-sample", "inf-sample", "empty-data", "partial-frame",
                                    "rate-7hz"])
def test_unusable_wav_is_data_error(small_corpus, tmp_path, caplog, stage, outputs, defect):
    clean = corpus.load_wav(small_corpus / "wav" / "utt000_g0c0d0.wav").samples
    bad = np.arange(len(clean)) == 800
    frames = {
        "nan-sample": np.where(bad, np.nan, clean).astype("<f4").tobytes(),
        "inf-sample": np.where(bad, np.inf, clean).astype("<f4").tobytes(),
        "empty-data": b"",
        "partial-frame": b"\x00" * 3,  # of a four-byte float32 frame
        "rate-7hz": clean.astype("<f4").tobytes(),
    }[defect]
    rate = 7 if defect == "rate-7hz" else 16000
    wav_dir = tmp_path / "wav"
    wav_dir.mkdir()
    (wav_dir / "c.wav").write_bytes((small_corpus / "wav" / "utt000_g0c0d0.wav").read_bytes())
    (wav_dir / "d.wav").write_bytes(_wav_bytes(rate, 1, 3, 32, frames))
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
        "u1,wav/c.wav,wav/d.wav,0,0,0,\n"
    )
    out = tmp_path / "out"
    assert main([stage, "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA
    for name in outputs:
        _assert_failed_row_blank(out / name, ["u1", "0", "0", "0"])
    assert "u1 G0C0D0: " in caplog.text and "d.wav" in caplog.text


@pytest.fixture(scope="module")
def one_pair(small_corpus, tmp_path_factory):
    """A one-pair manifest over wav/c.wav and wav/d.wav, and the valid PCM16
    and float32 bytes of each side."""
    root = tmp_path_factory.mktemp("one_pair")
    (root / "wav").mkdir()
    (root / "m.csv").write_text("utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
                                "u1,wav/c.wav,wav/d.wav,1,0,1,\n")
    wavs = {}
    for name, source in (("c.wav", "utt000_clean.wav"), ("d.wav", "utt000_g1c0d1.wav")):
        samples = corpus.load_wav(small_corpus / "wav" / source).samples
        pcm = np.round(samples * 32767).astype("<i2")
        wavs[name, 16] = _wav_bytes(16000, 1, 1, 16, pcm.tobytes())
        wavs[name, 32] = _wav_bytes(16000, 1, 3, 32, samples.astype("<f4").tobytes())
    return root, wavs


@st.composite
def _one_mutation(draw, blob: bytes, bits: int) -> bytes:
    """``blob``, a _wav_bytes file of ``bits``-bit samples, with one seeded mutation."""
    blob = bytearray(blob)
    width = bits // 8
    n_samples = (len(blob) - _DATA_START) // width
    kind = draw(st.sampled_from(["truncate", "size", "fmt", "sample", "silence"]))
    if kind == "truncate":
        del blob[draw(st.integers(0, len(blob))):]
    elif kind == "size":
        at = draw(st.sampled_from(_SIZE_FIELDS))
        blob[at:at + 4] = draw(st.integers(0, 2 ** 32 - 1)).to_bytes(4, "little")
    elif kind == "fmt":
        at, size = draw(st.sampled_from(_FMT_FIELDS))
        value = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 16, 32, 0xFFFE]),
                               st.integers(0, 2 ** (8 * size) - 1)))
        blob[at:at + size] = value.to_bytes(size, "little")
    elif kind == "sample":
        at = _DATA_START + width * draw(st.integers(0, n_samples - 1))
        if bits == 16:
            blob[at:at + 2] = struct.pack("<h", draw(st.sampled_from([-32768, 32767])))
        else:
            value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e30, 3e38]))
            blob[at:at + 4] = struct.pack("<f", value)
    else:  # silence from a drawn sample to the end; from 0 the side is all silent
        at = _DATA_START + width * draw(st.integers(0, n_samples - 1))
        blob[at:] = bytes(len(blob) - at)
    return bytes(blob)


@settings(max_examples=24, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(side=st.sampled_from(["c.wav", "d.wav"]), bits=st.sampled_from([16, 32]), data=st.data())
def test_mutated_wav_stages_exit_0_2_or_3_and_name_the_row(one_pair, caplog, side, bits, data):
    root, wavs = one_pair
    for name in ("c.wav", "d.wav"):
        blob = wavs[name, bits]
        if name == side:
            blob = data.draw(_one_mutation(blob, bits), label="mutated")
        (root / "wav" / name).write_bytes(blob)
    out = root / "out"
    for stage, outputs in (("metrics", ("metrics.csv",)),
                           ("features", ("errors.csv", "features_clean.csv",
                                         "features_degraded.csv"))):
        caplog.clear()
        code = main([stage, "--manifest", str(root / "m.csv"), "--out", str(out)])
        # a numeric failure, such as an all-silent side, is exit 3
        assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), stage
        assert (code != EXIT_OK) == ("u1 G1C0D1: " in caplog.text), (stage, caplog.text)
        for name in outputs:
            with open(out / name, newline="") as fh:
                _, row = list(csv.reader(fh))
            assert row[:4] == ["u1", "1", "0", "1"]
            written = [cell for cell in row[4:] if cell]
            assert all(math.isfinite(float(cell)) for cell in written), (name, row)
            if code != EXIT_OK:
                assert not written, (name, row)


def _copy_stage_inputs(src, dst):
    dst.mkdir()
    for name in ("metrics.csv", "errors.csv"):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def _set_cells(path, row_index, cells):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    rows[row_index].update(cells)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return rows[row_index]


def test_blank_errors_row_is_skipped(pipeline_out, tmp_path, caplog):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    blank = _set_cells(out / "errors.csv", 3, dict.fromkeys([f"e{i}" for i in range(26)], ""))
    with caplog.at_level("WARNING", logger="vda"):
        assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
        assert main(["decompose", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    row = f"{blank['utterance_id']} G{blank['G']}C{blank['C']}D{blank['D']}"
    assert f"errors.csv: {row}: no feature errors; row skipped" in caplog.text


def test_fit_missing_key_column_is_schema_error(pipeline_out, tmp_path, capsys):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, [c for c in rows[0] if c != "G"], extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_USAGE
    assert "missing required column(s) G" in capsys.readouterr().err


def test_fit_and_decompose_agree_on_partial_pesq(pipeline_out, tmp_path, capsys):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    blank = _set_cells(out / "metrics.csv", 5, dict.fromkeys(["pesq", "csig", "cbak", "covl"], ""))
    assert (blank["utterance_id"], blank["G"], blank["C"], blank["D"]) == ("utt000", "1", "0", "1")
    capsys.readouterr()
    assert main(["fit", "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA
    fit_err = capsys.readouterr().err
    assert main(["decompose", "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA
    assert "1 row(s) lack an external pesq value (first utt000 G1C0D1, metrics.csv data row 6)" in fit_err
    assert capsys.readouterr().err == fit_err
    # the same from the parsed copy that a stoi stage leaves
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert (out / cli._OBSERVATIONS_COPY).exists()
    capsys.readouterr()
    for stage in ("fit", "decompose"):
        assert main([stage, "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA
        assert capsys.readouterr().err == fit_err, stage
    # a blank line is not a data row
    text = (out / "metrics.csv").read_text(encoding="utf-8").replace("\n", "\n\n", 1)
    (out / "metrics.csv").write_text(text, encoding="utf-8")
    assert main(["fit", "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA
    assert capsys.readouterr().err == fit_err


@pytest.mark.parametrize("stage", ["fit", "decompose"])
@pytest.mark.parametrize("outcome,edits,named", [
    ("stoi", {"errors.csv": {"e3": "abc"}}, "errors.csv: utt000 G1C0D1: could not convert"),
    ("stoi", {"errors.csv": {"e3": "-1.5"}}, "errors.csv: utt000 G1C0D1: error values must be"),
    ("stoi", {"metrics.csv": {"stoi": "nan"}},
     "metrics.csv: utt000 G1C0D1: values must be blank or finite numbers (column stoi)"),
    ("stoi", {"metrics.csv": {"G": "2"}, "errors.csv": {"G": "2"}},
     "metrics.csv: utt000 G2C0D1: G/C/D indicators must be"),
    # the stoi cell gates the row even when pesq is the outcome
    ("pesq", {"metrics.csv": {"stoi": "abc"}},
     "metrics.csv: utt000 G1C0D1: could not convert string to float: 'abc' (column stoi)"),
    ("pesq", {"metrics.csv": {"stoi": "nan"}},
     "metrics.csv: utt000 G1C0D1: values must be blank or finite numbers (column stoi)"),
], ids=["e-not-a-number", "e-negative", "stoi-nan", "G-is-2", "pesq-stoi-not-a-number",
        "pesq-stoi-nan"])
def test_malformed_model_cell_is_data_error(pipeline_out, tmp_path, capsys, stage, outcome, edits,
                                            named):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    for name, cells in edits.items():
        row = _set_cells(out / name, 5, cells)
        assert (row["utterance_id"], row["C"], row["D"]) == ("utt000", "0", "1")
    capsys.readouterr()
    assert main([stage, "--out", str(out), "--outcome", outcome]) == EXIT_DATA
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["fit", "decompose", "report"])
def test_repeated_key_is_data_error(pipeline_out, tmp_path, capsys, stage):
    # a manifest may list a pair twice; the repeated row must not join one errors.csv row twice
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    for name in ("metrics.csv", "errors.csv"):
        text = (out / name).read_text(encoding="utf-8")
        (out / name).write_text(text + text.splitlines()[6] + "\n", encoding="utf-8")
    for blank_line in ("", "\n"):  # a blank line is not a data row
        text = (out / "metrics.csv").read_text(encoding="utf-8")
        (out / "metrics.csv").write_text(text.replace("\n", "\n" + blank_line, 1), encoding="utf-8")
        capsys.readouterr()
        assert main([stage, "--out", str(out)]) == EXIT_DATA
        assert "metrics.csv: utt000 G1C0D1: repeated on data rows 6 and 17" in capsys.readouterr().err


def _golden_tables():
    tables = {}
    for name in ("metrics.csv", "errors.csv"):
        with open(GOLDEN / name, newline="", encoding="utf-8") as fh:
            tables[name] = list(csv.reader(fh))
    return tables


_GOLDEN_TABLES = _golden_tables()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_GOLDEN_TABLES)), row=st.integers(0, 128),
       column=st.integers(0, 29), outcome=st.sampled_from(cli.OUTCOMES),
       value=st.one_of(st.sampled_from(["", "nan", "-inf", "1e999", "-1", "2", "0.5", "-0", " 1",
                                        "1_0", "0x1p3", "9" * 20, "abc", "１", "G", "utt000"]),
                       st.text(max_size=5)))
def test_mutated_model_cell_loads_or_fails_as_usage_or_data_error(tmp_path_factory, name, row,
                                                                   column, outcome, value):
    # row 0 is the header; the golden tables have 128 rows
    out = tmp_path_factory.getbasetemp() / "mutated"
    out.mkdir(exist_ok=True)
    for table_name, table in _GOLDEN_TABLES.items():
        table = [list(r) for r in table]
        if table_name == name:
            table[row][column % len(table[row])] = value
        with open(out / table_name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    failures = {}
    try:
        obs = _read_observations(out, outcome)[0]
    except VdaError as exc:
        failures["observations"] = exc
    else:
        assert np.isfinite(obs.e).all() and np.isfinite(obs.y).all()
    try:
        means = cli._metric_csv_aggregates(out / "metrics.csv")
    except VdaError as exc:
        failures["aggregates"] = exc
    else:
        assert all(np.isfinite(m) for cell in means.values() for m in cell.values())
    for exc in failures.values():
        assert cli._exit_code(exc) in (EXIT_USAGE, EXIT_DATA), exc
    # both stages read a key, label, stoi or outcome cell of metrics.csv by the same rules
    header = _GOLDEN_TABLES["metrics.csv"][0]
    shared = {"utterance_id", "G", "C", "D", "stoi", outcome}
    if name == "metrics.csv" and header[column % len(header)] in shared:
        formats = [isinstance(failures.get(k), FormatError) for k in ("observations", "aggregates")]
        assert formats[0] == formats[1], failures


# cell texts on either side of what float() accepts, and of what numpy's
# tokenizer splits
_READER_CELLS = ["", " 1", "1_0", "１", "٣", "nan", "1e999", "a,b", 'a"b', "0x1p3", "\x1c1", " ",
                 "\xa02", "-0", "1\r\n2", "0", "1", "utt000"]


@st.composite
def _mutated_table_text(draw, table):
    """``table`` as CSV text, with drawn cells replaced, LF or CRLF line
    endings, and at most one of a short row, a whitespace-only line or no
    data row."""
    rows = [list(r) for r in table]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.one_of(st.sampled_from(_READER_CELLS), st.text(max_size=4)))
    shape = draw(st.sampled_from(["as-is", "short-row", "whitespace-line", "header-only"]))
    if shape == "short-row":
        row = rows[draw(st.integers(1, len(rows) - 1))]
        del row[draw(st.integers(1, len(row) - 1)):]
    elif shape == "whitespace-line":
        rows.insert(draw(st.integers(1, len(rows))), [" "])
    elif shape == "header-only":
        del rows[1:]
    fh = io.StringIO()
    csv.writer(fh, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return fh.getvalue()


def _read_outcome(path, columns):
    """What _parse_table returns for ``path``, values as bytes, or the class
    and message of what it raises; no warning may leave it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            keys, labels, values = cli._parse_table(path, columns)
        except Exception as exc:  # any class: the oracle names the one it must be
            outcome = type(exc), str(exc)
        else:
            outcome = keys, labels.tolist(), values.shape, values.tobytes()
    assert not caught, [str(w.message) for w in caught]
    return outcome


def _oracle_outcome(path, columns):
    """What _parse_table must return for ``path``, as _read_outcome gives it,
    by csv.reader and float() cell by cell. For a row too short for a key or
    a requested column: FormatError and the text its message must hold."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh)) or [cli.KEY_COLUMNS]
    missing = [c for c in cli.KEY_COLUMNS if c not in header]
    if missing:
        return SchemaError, f"{path}: missing required column(s) {', '.join(missing)}"
    index = {name: i for i, name in enumerate(header)}
    rows = [row for row in rows if row]
    width = 1 + max(index[c] for c in cli.KEY_COLUMNS + columns if c in index)
    short = [r for r, row in enumerate(rows, start=1) if len(row) < width]
    if short:
        return FormatError, f"on data row {short[0]} "
    keys = [tuple(row[index[c]] for c in cli.KEY_COLUMNS) for row in rows]

    def bad(r, column, reason):
        return FormatError, f"{path}: {cli._key_name(keys[r])}: {reason} (column {column})"

    for r, key in enumerate(keys):
        for column, cell in zip(cli.KEY_COLUMNS[1:], key[1:]):
            if cell not in ("0", "1"):
                return bad(r, column, "G/C/D indicators must be 0 or 1")
    seen = {}
    for r, key in enumerate(keys, start=1):
        if seen.setdefault(key, r) != r:
            return FormatError, f"{path}: {cli._key_name(key)}: repeated on data rows {seen[key]} and {r}"
    texts = [[row[index[c]] if c in index else "" for c in columns] for row in rows]
    for r, row in enumerate(texts):
        for column, text in zip(columns, row):
            try:
                float(text or "nan")
            except ValueError as exc:
                return bad(r, column, str(exc))
    for r, row in enumerate(texts):
        for column, text in zip(columns, row):
            if text and not math.isfinite(float(text)):
                return bad(r, column, "values must be blank or finite numbers")
    values = np.array([[float(text or "nan") for text in row] for row in texts], np.float64)
    labels = [[int(cell) for cell in key[1:]] for key in keys]
    return keys, labels, (len(rows), len(columns)), values.tobytes()


def _assert_reads_as_the_oracle(path, columns):
    got, want = _read_outcome(path, columns), _oracle_outcome(path, columns)
    if want[0] is FormatError and want[1].startswith("on data row"):  # a short row
        assert got[0] is FormatError and got[1].startswith(f"{path}: "), got
        assert want[1] in got[1], (got, want)
    else:
        assert got == want, (path, columns)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_GOLDEN_TABLES)), data=st.data())
def test_parse_table_agrees_with_the_csv_reader_oracle(tmp_path_factory, name, data):
    # _parse_table: numpy's tokenizer splits the rows and float() reads the
    # cells; every table must come out as the csv.reader oracle reads it,
    # bitwise, or fail as it says it must
    out = tmp_path_factory.getbasetemp() / "reader"
    out.mkdir(exist_ok=True)
    for table_name, table in _GOLDEN_TABLES.items():
        text = (GOLDEN / table_name).read_text(encoding="utf-8")
        if table_name == name:
            text = data.draw(_mutated_table_text(table), label=table_name)
        (out / table_name).write_bytes(text.encode("utf-8"))
    for table_name, columns in (("metrics.csv", ("stoi", "pesq")), ("metrics.csv", metrics.COLUMNS),
                                ("errors.csv", cli.ERROR_COLUMNS)):
        _assert_reads_as_the_oracle(out / table_name, columns)


def _edit_cell(row, column, text):
    def edit(rows):
        rows[row][rows[0].index(column)] = text
    return edit


def _drop_tail(rows):
    del rows[3][10:]


def _drop_data(rows):
    del rows[1:]


# each edge: an edit of the golden errors.csv rows and the line terminator
_READER_EDGES = {
    "crlf": (lambda rows: None, "\r\n"),
    "quoted-comma-and-cr-key": (_edit_cell(2, "utterance_id", "a,\rb"), "\n"),
    "quoted-quote-key": (_edit_cell(2, "utterance_id", 'a"b'), "\r\n"),
    "padded-key": (_edit_cell(2, "G", " 1"), "\n"),
    "padded-number": (_edit_cell(2, "e3", "\t0.5 "), "\n"),
    "blank": (_edit_cell(2, "e3", ""), "\n"),
    "underscore": (_edit_cell(2, "e3", "1_000"), "\n"),
    "full-width": (_edit_cell(2, "e3", "１"), "\n"),
    # float() refuses a number padded with an ASCII separator
    "separator": (_edit_cell(2, "e3", "\x1c1"), "\n"),
    # a header over two lines: its second line is still the header
    "header-newline": (_edit_cell(0, "e25", "e25\nu9,0,0,0," + ",".join("1" * 26)), "\n"),
    "short-row": (_drop_tail, "\n"),
    "whitespace-line": (lambda rows: rows.insert(4, ["  "]), "\n"),
    "blank-line": (lambda rows: rows.insert(4, []), "\n"),
    "header-only": (_drop_data, "\n"),
}


@pytest.mark.parametrize("edge", sorted(_READER_EDGES))
def test_c_reader_edge_agrees_with_the_csv_route(tmp_path, edge):
    # _parse_table against the csv.reader oracle on one edge of the format
    edit, newline = _READER_EDGES[edge]
    rows = [list(r) for r in _GOLDEN_TABLES["errors.csv"]]
    edit(rows)
    path = tmp_path / "errors.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=newline).writerows(rows)
    columns = cli.ERROR_COLUMNS[:25]  # e25 is renamed by the header-newline edge
    _assert_reads_as_the_oracle(path, columns)
    if edge in ("short-row", "whitespace-line"):
        assert _read_outcome(path, columns)[0] is FormatError


def _errors_table(n_rows, seed=0):
    """An errors.csv table of ``n_rows`` distinct rows, header first."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, (n_rows, 3)).astype(str).tolist()
    values = rng.random((n_rows, len(cli.ERROR_COLUMNS))).round(4).astype(str).tolist()
    return [list(cli.KEY_COLUMNS + cli.ERROR_COLUMNS),
            *([f"u{i}", *label, *value] for i, (label, value) in enumerate(zip(labels, values)))]


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("shape", ["as-is", "blank-lines", "short-row-in-block-2"])
def test_reader_block_boundaries_agree_with_the_oracle(tmp_path, extra, shape):
    rows = _errors_table(2 * cli._TABLE_BLOCK_ROWS + extra)
    if shape == "blank-lines":  # numpy warns of a blank line; its rows are not counted
        rows[5:5] = [[], []]
        rows.append([])
    elif shape == "short-row-in-block-2":
        del rows[cli._TABLE_BLOCK_ROWS + 3][7:]
    path = tmp_path / "errors.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    _assert_reads_as_the_oracle(path, cli.ERROR_COLUMNS)
    if shape == "short-row-in-block-2":
        assert f"on data row {cli._TABLE_BLOCK_ROWS + 3} " in _read_outcome(path, cli.ERROR_COLUMNS)[1]


def test_reader_peak_memory_is_bounded(tmp_path):
    # the cells are read as Python strings a block at a time; all at once
    # they would take about 12x the bytes of the values
    path = tmp_path / "errors.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(_errors_table(20000))
    (_, _, values), peak = peak_memory(cli._parse_table, path, cli.ERROR_COLUMNS)
    assert values.shape == (20000, 26)
    assert peak < 6 * values.nbytes, peak / values.nbytes


def test_column_missing_from_the_header_reads_nan_on_a_long_row(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("utterance_id,G,C,D,stoi\nu1,0,0,0,0.5,7\n", encoding="utf-8")
    keys, labels, values = cli._parse_table(path, ("stoi", "pesq"))
    assert keys == [("u1", "0", "0", "0")] and labels.tolist() == [[0, 0, 0]]
    assert values[0, 0] == 0.5 and np.isnan(values[0, 1])


def test_long_data_cell_is_read(tmp_path):
    # csv.reader refuses a field over 131 072 characters; numpy's tokenizer has no limit
    rows = _errors_table(3)
    rows[2][0] = "u" * 140_000
    path = tmp_path / "errors.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    keys, _, values = cli._parse_table(path, cli.ERROR_COLUMNS)
    assert keys[1][0] == "u" * 140_000 and values.shape == (3, 26)


# the column sets that fit, decompose and report read, by table
_STAGE_COLUMNS = {"metrics.csv": (("stoi", "pesq"), metrics.COLUMNS),
                  "errors.csv": (cli.ERROR_COLUMNS,)}


def _write_golden_tables(out, blank_and_failed=False):
    """The golden seed-7 tables in ``out``; ``blank_and_failed`` blanks a
    cell, fails a row (its key alone) and gives two rows ids that need
    quoting or are not ASCII."""
    out.mkdir()
    for name, table in _GOLDEN_TABLES.items():
        rows = [list(r) for r in table]
        if blank_and_failed:
            rows[2][len(cli.KEY_COLUMNS):] = [""] * (len(rows[0]) - len(cli.KEY_COLUMNS))
            rows[5][rows[0].index("stoi" if name == "metrics.csv" else "e7")] = ""
            rows[7][0], rows[9][0] = 'a,\r"b', "ü€𝄞"
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return out


def _joined_bits(joined):
    *arrays, skipped, no_pesq = joined
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays], [list(note) for note in skipped], list(no_pesq)


def _obs_bits(obs):
    return [(a.dtype, a.shape, a.tobytes()) for a in (obs.e, obs.labels, obs.y)]


def _count_parses(monkeypatch):
    """A list that gains the file name and columns of each _parse_table call."""
    parses, parse = [], cli._parse_table
    monkeypatch.setattr(cli, "_parse_table", lambda path, columns: parses.append((path.name, columns))
                        or parse(path, columns))
    return parses


def _read_observations(out, outcome="stoi"):
    """The model input in ``out``, read as a stage reads it, and what its
    parse gave to write the parsed copy, which is then written (None after a load)."""
    obs, parse = cli._observations(out, outcome)
    cli._write_observations(out, parse)
    return obs, parse


def _save_copy(out):
    """Read the model input in ``out``, which must parse, and write its parsed copy; return what the read gave."""
    obs, parse = _read_observations(out)
    assert isinstance(parse[0], bytes)
    assert (out / cli._OBSERVATIONS_COPY).exists()
    return obs


def _copy_key(copy):
    """The key that leads the parsed copy ``copy``."""
    return np.load(copy).tobytes()


@pytest.mark.parametrize("blank_and_failed", [False, True])
def test_warm_read_is_the_parse_bitwise(tmp_path, monkeypatch, blank_and_failed):
    out = _write_golden_tables(tmp_path / "out", blank_and_failed)
    cold = _save_copy(out)
    parsed = cli._join(out / "metrics.csv", out / "errors.csv")[0]
    copy = out / cli._OBSERVATIONS_COPY
    parses = _count_parses(monkeypatch)
    loaded, state = cli._load_observations(copy, _copy_key(copy))
    assert state == "loaded" and _joined_bits(loaded) == _joined_bits(parsed)
    warm, parse = _read_observations(out)
    assert _obs_bits(warm) == _obs_bits(cold)
    assert parses == [] and parse is None


def _edit_table(name, column, text):
    return lambda out, copy: _set_cells(out / name, 3, {column: text})


def _edit_copy(edit):
    return lambda out, copy: copy.write_bytes(edit(copy.read_bytes()))


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 0x55]) + data[at + 1:]


def _take_name(out, copy):
    copy.unlink()
    copy.mkdir()


# each: a change to a table or to the parsed copy after the copy is written
_COPY_DAMAGE = {
    "edited-cell": _edit_table("errors.csv", "e4", "0.25"),
    "edited-metrics-cell": _edit_table("metrics.csv", "stoi", "0.25"),
    "refused-cell": _edit_table("errors.csv", "e4", "abc"),
    "truncated": _edit_copy(lambda data: data[:len(data) // 2]),
    "empty": _edit_copy(lambda data: b""),
    "trailing-byte": _edit_copy(lambda data: data + b"\0"),
    "garbled-magic": _edit_copy(lambda data: _flip(data, 3)),
    "garbled-shape": _edit_copy(lambda data: data.replace(b"(64,)", b"(65,)", 1)),  # the key's shape
    "garbled-key": _edit_copy(lambda data: _flip(data, 140)),  # the key's data follows a 128-byte header
    "garbled-values": _edit_copy(lambda data: _flip(data, len(data) - 300)),
    "garbled-checksum": _edit_copy(lambda data: _flip(data, len(data) - 3)),
    "name-taken": _take_name,
}


def _observations_outcome(out):
    """The bits of the model input in ``out``, or the class and message of the VdaError its read raises."""
    try:
        return _obs_bits(_read_observations(out)[0])
    except VdaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("damage", sorted(_COPY_DAMAGE))
def test_stale_or_damaged_copy_is_parsed_around(tmp_path, monkeypatch, damage):
    # the read parses both tables once and gives what a read with no copy gives;
    # only an edited table changes that
    out = _write_golden_tables(tmp_path / "out")
    before = _obs_bits(_save_copy(out))
    copy = out / cli._OBSERVATIONS_COPY
    _COPY_DAMAGE[damage](out, copy)
    parses = _count_parses(monkeypatch)
    got = _observations_outcome(out)
    assert parses == [("metrics.csv", cli.OUTCOMES), ("errors.csv", cli.ERROR_COLUMNS)]
    if copy.is_dir():
        copy.rmdir()
    copy.unlink(missing_ok=True)
    assert got == _observations_outcome(out)
    assert (got != before) == damage.endswith("-cell")


@pytest.mark.parametrize("refusal", ["read-only-out", "name-taken", "open-refused"])
def test_stage_that_cannot_write_a_copy_exits_0(pipeline_out, tmp_path, monkeypatch, refusal):
    want = _copy_stage_inputs(pipeline_out, tmp_path / "want")
    assert main(["fit", "--out", str(want)]) == EXIT_OK
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    if refusal == "read-only-out":  # the outputs exist, so only the copy is a new file
        if os.geteuid() == 0:
            pytest.skip("root writes in a read-only directory")
        assert main(["fit", "--out", str(out)]) == EXIT_OK
        for copy in out.glob(".*.npy"):
            copy.unlink()
        out.chmod(0o555)
    elif refusal == "name-taken":
        (out / cli._OBSERVATIONS_COPY).mkdir()
    else:  # every file that vda.cli opens for writing is refused
        def refusing_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                raise PermissionError(13, "Permission denied", str(file))
            return open(file, mode, *args, **kwargs)
        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
    try:
        assert main(["fit", "--out", str(out)]) == EXIT_OK
    finally:
        out.chmod(0o755)
    assert not list(out.glob("*.tmp"))
    for name in ("fit_stoi.json", "regression_stoi.csv", "regression_stoi.md"):
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_stages_parse_each_table_once(pipeline_out, tmp_path, monkeypatch):
    # fit, decompose and report on one --out parse each table once per
    # column set they read it for, and errors.csv once in all: the model
    # stages after the first load the parsed copy that it left
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    (out / "metrics_variant.csv").write_bytes((out / "metrics.csv").read_bytes())
    parses = _count_parses(monkeypatch)
    for outcome in cli.OUTCOMES:
        for stage in ("fit", "decompose"):
            assert main([stage, "--out", str(out), "--outcome", outcome]) == EXIT_OK
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert [p for p in parses if p[0] == "errors.csv"] == [("errors.csv", cli.ERROR_COLUMNS)]
    assert sorted(parses) == sorted([(name, columns) for name, sets in _STAGE_COLUMNS.items()
                                     for columns in sets] + [("metrics_variant.csv", metrics.COLUMNS)])
    # report reads without writing a copy, so it leaves the model stages' copy in place
    parses.clear()
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert parses == []
    assert sorted(p.name for p in out.glob(".*")) == [cli._OBSERVATIONS_COPY]


def test_warm_decompose_hashes_both_tables_and_parses_neither(pipeline_out, tmp_path, monkeypatch):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    assert main(["fit", "--out", str(out)]) == EXIT_OK
    parses = _count_parses(monkeypatch)
    hashed, digest = [], cli._table_digest
    monkeypatch.setattr(cli, "_table_digest", lambda path: hashed.append(path.name) or digest(path))
    assert main(["decompose", "--out", str(out)]) == EXIT_OK
    assert parses == [] and hashed == ["metrics.csv", "errors.csv"]


@pytest.mark.parametrize("outcome", cli.OUTCOMES)
def test_warm_model_stages_write_the_cold_files(pipeline_out, tmp_path, outcome):
    # each stage on "cold" parses (its copy is deleted first); each on "warm"
    # loads the copy that the fit before them left
    cold = _copy_stage_inputs(pipeline_out, tmp_path / "cold")
    warm = _copy_stage_inputs(pipeline_out, tmp_path / "warm")
    assert main(["fit", "--out", str(warm), "--outcome", outcome]) == EXIT_OK
    copy = (warm / cli._OBSERVATIONS_COPY).read_bytes()
    for stage in (["fit"], ["decompose"], ["decompose", "--reference", "zero-error"]):
        (cold / cli._OBSERVATIONS_COPY).unlink(missing_ok=True)
        assert main([*stage, "--out", str(cold), "--outcome", outcome]) == EXIT_OK
        assert main([*stage, "--out", str(warm), "--outcome", outcome]) == EXIT_OK
    assert (warm / cli._OBSERVATIONS_COPY).read_bytes() == copy
    names = sorted(p.name for p in cold.iterdir())
    assert names == sorted(p.name for p in warm.iterdir())
    for name in names:
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name


def test_report_parses_without_hashing_or_copies(pipeline_out, tmp_path, monkeypatch):
    # report parses every table it reads: it hashes none, and a doctored
    # parsed copy, which the model stages load, leaves its outputs as they are
    want = _copy_stage_inputs(pipeline_out, tmp_path / "want")
    assert main(["report", "--out", str(want)]) == EXIT_OK
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    _save_copy(out)
    copy = out / cli._OBSERVATIONS_COPY
    e, labels, outcomes, skipped, no_pesq = cli._load_observations(copy, _copy_key(copy))[0]
    doctored = (e, labels, outcomes + 1.0, skipped, no_pesq)
    cli._write_observations(out, (_copy_key(copy), doctored, "doctored"))
    np.testing.assert_array_equal(_read_observations(out)[0].y, outcomes[:, 0] + 1.0)
    hashed = []
    monkeypatch.setattr(cli, "_table_digest", lambda *args: hashed.append(args) or b"")
    assert main(["report", "--out", str(out)]) == EXIT_OK
    assert hashed == []
    for suffix in (".csv", ".json", ".md"):
        name = f"comparison{suffix}"
        assert (out / name).read_bytes() == (want / name).read_bytes(), name


def test_stage_removes_temp_copies_a_killed_stage_left(pipeline_out, tmp_path):
    want = _copy_stage_inputs(pipeline_out, tmp_path / "want")
    assert main(["fit", "--out", str(want)]) == EXIT_OK
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    left = out / f"{cli._OBSERVATIONS_COPY}.99999999.tmp"
    left.write_bytes(b"\x93NUMPY")
    assert main(["fit", "--out", str(out)]) == EXIT_OK
    assert not left.exists()
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_model_stage_that_fails_after_its_parse_leaves_no_copy(pipeline_out, tmp_path, monkeypatch):
    # the copy is written only after a stage's outputs: a stage that fails in
    # its read or after its model leaves neither the copy nor a temp file
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    _set_cells(out / "metrics.csv", 3, {"pesq": ""})
    logged = []
    monkeypatch.setattr(cli, "_log", lambda level, msg, *args: logged.append((level, msg % args)))
    assert main(["fit", "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA

    def refuse(*args):
        raise ValueError("markdown refused")

    with monkeypatch.context() as patch:
        patch.setattr(report, "_markdown", refuse)
        assert main(["decompose", "--out", str(out)]) == EXIT_USAGE
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "metrics.csv"]
    logged.clear()
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_OK
    assert logged == [("debug", f"{out / cli._OBSERVATIONS_COPY}: "
                                "missing (FileNotFoundError), parsed around; written")]


@pytest.mark.parametrize("stage,render", [("decompose", "render_decomposition_table"),
                                          ("report", "render_comparison_table")])
def test_stage_that_cannot_render_a_table_writes_no_file(pipeline_out, tmp_path, monkeypatch,
                                                         capsys, stage, render):
    # the markdown table is rendered last; the JSON and CSV before it must not be written
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")

    def refuse(*args):
        raise ValueError(f"markdown refused in {sys._getframe(1).f_code.co_name}")

    monkeypatch.setattr(report, "_markdown", refuse)
    assert main([stage, "--out", str(out)]) != EXIT_OK
    assert f"markdown refused in {render}" in capsys.readouterr().err
    assert not list(out.glob("decomposition_*")) and not list(out.glob("comparison.*"))


@pytest.mark.parametrize("stage,name", [("fit", "errors.csv"), ("decompose", "errors.csv"),
                                        ("fit", "metrics.csv"), ("decompose", "metrics.csv"),
                                        ("report", "metrics.csv")])
@pytest.mark.parametrize("defect", ["not-utf-8-head", "not-utf-8-tail", "long-header-cell"])
def test_unreadable_table_is_data_error(pipeline_out, tmp_path, capsys, stage, name, defect):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    text = (out / name).read_bytes()
    header, rest = text.split(b"\n", 1)
    if defect == "not-utf-8-head":
        text = header + b"\n" + rest.replace(b"utt000", b"utt\xff00", 1)
    elif defect == "not-utf-8-tail":  # past the first decoded chunk, so numpy's tokenizer meets it
        text += b"\n" * 20000 + b"u\xff," + rest.split(b",", 1)[1].split(b"\n", 1)[0] + b"\n"
    else:  # over csv's 131 072-character field limit
        text = header + b"," + b"x" * 140_000 + b"\n" + rest
    (out / name).write_bytes(text)
    capsys.readouterr()
    assert main([stage, "--out", str(out)]) == EXIT_DATA
    assert f"error: {out / name}: " in capsys.readouterr().err


def test_features_csv_shape(pipeline_out):
    with open(pipeline_out / "errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(float(r["e0"]) == 1.0 for r in rows)
    assert (pipeline_out / "features_clean.csv").exists()
    assert (pipeline_out / "features_degraded.csv").exists()


def test_fit_outputs(pipeline_out):
    fit = json.loads((pipeline_out / "fit_stoi.json").read_text())
    assert len(fit["coefficients"]) == 208
    assert (pipeline_out / "regression_stoi.md").exists()
    assert (pipeline_out / "regression_stoi.csv").exists()


def test_fit_undefined_p_value_is_numeric(pipeline_out, tmp_path, capsys):
    # a constant outcome fits exactly: theta and its std_err are 0, so t and p are NaN
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    for row in range(16):
        _set_cells(out / "metrics.csv", row, {"stoi": "0.0"})
    capsys.readouterr()
    assert main(["fit", "--out", str(out), "--outcome", "stoi"]) == EXIT_NUMERIC
    assert "column (feature 0, term 1): p-value undefined" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["errors.csv", "metrics.csv"]


def test_fit_missing_upstream(tmp_path):
    assert main(["fit", "--out", str(tmp_path / "empty"), "--outcome", "stoi"]) == EXIT_DATA


def test_fit_pesq_without_values(small_corpus, tmp_path):
    # strip the pesq column values, then ask for the pesq outcome
    manifest = corpus.parse_manifest(small_corpus / "manifest.csv")
    stripped = corpus.CorpusManifest(
        tuple(
            corpus.ManifestEntry(e.utterance_id, e.clean_path, e.degraded_path, e.label, None)
            for e in manifest.entries
        )
    )
    mpath = tmp_path / "m.csv"
    corpus.write_manifest(mpath, stripped)
    out = tmp_path / "out"
    assert main(["metrics", "--manifest", str(mpath), "--out", str(out)]) == EXIT_OK
    assert main(["features", "--manifest", str(mpath), "--out", str(out)]) == EXIT_OK
    assert main(["fit", "--out", str(out), "--outcome", "pesq"]) == EXIT_DATA


def test_decompose_additivity_on_emitted_file(pipeline_out):
    with open(pipeline_out / "decomposition_stoi.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["indicator"] for r in rows] == ["1", "G", "C", "D", "G*C", "G*D", "C*D", "G*C*D"]
    for row in rows:
        total = float(row["endowment"]) + float(row["coefficient"]) + float(row["interaction"])
        # emitted at 3 decimals: identity holds within rounding of the sum
        assert abs(total - float(row["collective"])) <= 0.002


def test_decompose_json_metadata(pipeline_out):
    payload = json.loads((pipeline_out / "decomposition_stoi.json").read_text())
    assert payload["outcome"] == "stoi"
    assert payload["reference"] == "stratum"
    for rec in payload["rows"]:
        total = rec["endowment"] + rec["coefficient"] + rec["interaction"]
        assert abs(total - rec["collective"]) <= 1e-12


def test_zero_error_decomposition_keeps_the_stratum_files(pipeline_out, tmp_path, capsys):
    for name in ("metrics.csv", "errors.csv"):
        shutil.copy(pipeline_out / name, tmp_path / name)
    assert main(["decompose", "--out", str(tmp_path), "--outcome", "stoi"]) == EXIT_OK
    stratum = {p.name: p.read_bytes() for p in tmp_path.glob("decomposition_*")}
    assert sorted(stratum) == [f"decomposition_stoi{s}" for s in (".csv", ".json", ".md")]
    capsys.readouterr()
    assert main(["decompose", "--out", str(tmp_path), "--outcome", "stoi",
                 "--reference", "zero-error"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == str(tmp_path / "decomposition_stoi_zero-error.csv")
    both = {p.name: p.read_bytes() for p in tmp_path.glob("decomposition_*")}
    assert {name: both.pop(name) for name in stratum} == stratum
    assert sorted(both) == [f"decomposition_stoi_zero-error{s}" for s in (".csv", ".json", ".md")]
    assert json.loads(both["decomposition_stoi_zero-error.json"])["reference"] == "zero-error"


def test_report_outputs(pipeline_out):
    assert (pipeline_out / "comparison.csv").exists()
    text = (pipeline_out / "comparison.csv").read_text()
    assert text.startswith("metric,condition,baseline")


def test_report_with_variant(pipeline_out):
    variant = pipeline_out / "metrics_shifted.csv"
    if not variant.exists():
        base = (pipeline_out / "metrics.csv").read_text()
        variant.write_text(base)
    assert main(["report", "--out", str(pipeline_out)]) == EXIT_OK
    text = (pipeline_out / "comparison.csv").read_text()
    assert "delta_shifted" in text.splitlines()[0]
    assert "+0.00" in text


def test_csii_low_reaches_the_comparison(tmp_path):
    # the level sweep of make_speech_like fills CSII's low-level region, which
    # the synthetic corpus never does
    pair = noisy_pair(make_speech_like(), 10.0)
    (tmp_path / "wav").mkdir()
    corpus.write_wav(tmp_path / "wav" / "c.wav", pair.clean)
    corpus.write_wav(tmp_path / "wav" / "d.wav", pair.degraded)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "utterance_id,clean_path,degraded_path,G,C,D,pesq\n"
        "u1,wav/c.wav,wav/d.wav,0,0,0,\n"
    )
    out = tmp_path / "out"
    assert main(["metrics", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
    with open(out / "metrics.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert 0.0 < float(row["csii_low"]) < 1.0
    assert main(["report", "--out", str(out)]) == EXIT_OK
    lines = (out / "comparison.csv").read_text().splitlines()
    assert f"csii_low,G0C0D0,{float(row['csii_low']):.2f}" in lines


@pytest.mark.parametrize("name", ["metrics.csv", "metrics_variant.csv"])
@pytest.mark.parametrize("cells,reason", [
    ({"stoi": "abc"}, "could not convert string to float: 'abc'"),
    ({"stoi": "nan"}, "values must be blank or finite numbers (column stoi)"),
    ({"G": "2"}, "G/C/D indicators must be 0 or 1"),
], ids=["stoi-not-a-number", "stoi-nan", "G-is-2"])
def test_malformed_report_cell_is_data_error(pipeline_out, tmp_path, capsys, name, cells, reason):
    out = _copy_stage_inputs(pipeline_out, tmp_path / "out")
    (out / "metrics_variant.csv").write_bytes((out / "metrics.csv").read_bytes())
    row = _set_cells(out / name, 5, cells)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_DATA
    assert f"{name}: utt000 G{row['G']}C0D1: {reason}" in capsys.readouterr().err


def test_pipeline_stage_reruns_idempotent(small_corpus, pipeline_out, tmp_path):
    out2 = tmp_path / "rerun"
    manifest = str(small_corpus / "manifest.csv")
    assert main(["metrics", "--manifest", manifest, "--out", str(out2)]) == EXIT_OK
    assert main(["features", "--manifest", manifest, "--out", str(out2)]) == EXIT_OK
    assert main(["fit", "--out", str(out2), "--outcome", "stoi"]) == EXIT_OK
    assert main(["decompose", "--out", str(out2), "--outcome", "stoi"]) == EXIT_OK
    for name in ("errors.csv", "fit_stoi.json", "decomposition_stoi.csv"):
        assert (out2 / name).read_bytes() == (pipeline_out / name).read_bytes()


def test_usage_error_exit_code():
    assert main(["fit"]) == EXIT_USAGE  # missing required --out


def _no_rows(*_args):
    raise AssertionError("a rejected argument let the stage score its rows")


@pytest.mark.parametrize("args", [
    "metrics --jobs 0", "metrics --jobs -5", "features --jobs 0", "features --jobs -5",
    "synth --utterances 0", "synth --utterances -2",
    "synth --duration 0", "synth --duration -1", "synth --duration nan",
    "synth --duration 0.00003",  # 0.48 of a sample at 16 kHz
])
def test_non_positive_count_is_usage_error(small_corpus, tmp_path, capsys, monkeypatch, args):
    monkeypatch.setattr(cli, "_map_jobs", _no_rows)
    command, flag, value = args.split()
    out = tmp_path / "out"
    argv = [command, flag, value, "--out", str(out)]
    if command != "synth":
        argv += ["--manifest", str(small_corpus / "manifest.csv")]
    assert main(argv) == EXIT_USAGE
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_one_sample_duration_is_accepted(tmp_path):
    # 0.64 of a sample at 16 kHz rounds to one
    assert main(["synth", "--out", str(tmp_path), "--utterances", "1", "--duration", "0.00004"]) == EXIT_OK
    assert corpus.load_wav(tmp_path / "wav" / "utt000_clean.wav").samples.shape == (1,)
