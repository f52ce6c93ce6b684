"""Command-line interface: artifacts, exit statuses, config layering."""

import ast
import concurrent.futures.process
import ctypes
import errno
import importlib
import json
import multiprocessing
import os
import pkgutil
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import synthlang
from test_autodiff import open_fds
from vecphon.checkpoint import load_checkpoint, save_checkpoint
from vecphon import cli, training
from vecphon.cli import build_parser, main
from vecphon.model import Variant, init_params, spell_and_score
from vecphon.vocab import Alphabet, MorphemeVocab, encode_entry


def option_actions(sub_parser):
    """A subcommand's settable options by long name (dest with hyphens),
    read straight from its parser."""
    return {a.dest.replace("_", "-"): a for a in sub_parser._actions
            if a.dest not in ("help", "config")}


# options that no command read, removed from these subcommands
REMOVED_OPTIONS = [
    ("predict", "--seed", "1"), ("predict", "--variant", "joint"), ("predict", "--dim", "8"),
    ("evaluate", "--seed", "1"), ("evaluate", "--variant", "joint"), ("evaluate", "--dim", "8"),
    ("evaluate", "--split-fracs", "0.1,0.1,0.8"), ("evaluate", "--no-coverage"),
    ("export-embeddings", "--seed", "1"), ("export-embeddings", "--variant", "joint"),
    ("export-embeddings", "--dim", "8"),
    ("resample", "--variant", "joint"), ("resample", "--data", "toy.tsv"),
]


def write_toy(tmp_path, n_stems=6, n_suffixes=4):
    slots = synthlang.harmony_slots(n_stems, n_suffixes)
    data = tmp_path / "toy.tsv"
    synthlang.write_paradigm_tsv(data, slots)
    return str(data), slots


def train_toy(tmp_path, out_name="run", extra=()):
    data, slots = write_toy(tmp_path)
    out = tmp_path / out_name
    rc = main(["train", "--data", data, "--out-dir", str(out), "--dim", "8",
               "--epochs", "2", "--seed", "5", *extra])
    assert rc == 0
    return data, str(out)


def test_train_writes_expected_artifacts(tmp_path):
    _, out = train_toy(tmp_path)
    for name in ("checkpoint.vpck", "trainlog.tsv", "config.txt",
                 "split/train.idx", "split/dev.idx", "split/test.idx",
                 "split/seed.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    log = Path(out, "trainlog.tsv").read_text()
    assert log.startswith("# epoch\ttrain_loss\tdev_loss\tlr")
    config = Path(out, "config.txt").read_text().splitlines()
    assert config[0] == "command=train"
    assert "dim=8" in config and "seed=5" in config


def test_train_rerun_is_bitwise_identical(tmp_path):
    _, out1 = train_toy(tmp_path, "a")
    _, out2 = train_toy(tmp_path, "b")
    log1 = Path(out1, "trainlog.tsv").read_bytes()
    log2 = Path(out2, "trainlog.tsv").read_bytes()
    assert log1 == log2
    ck1 = Path(out1, "checkpoint.vpck").read_bytes()
    ck2 = Path(out2, "checkpoint.vpck").read_bytes()
    assert ck1 == ck2


def test_config_file_sets_defaults_and_flags_override(tmp_path):
    data, _ = write_toy(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=10\nseed=3\nvariant=joint\nepochs=2\n# a comment\n")
    out = tmp_path / "cfgrun"
    rc = main(["train", "--config", str(cfg), "--data", data,
               "--out-dir", str(out), "--dim", "6"])
    assert rc == 0
    lines = (out / "config.txt").read_text().splitlines()
    assert "dim=6" in lines          # flag beats config file
    assert "seed=3" in lines         # config file beats built-in default
    assert "variant=joint" in lines
    params, variant, _, _ = load_checkpoint(str(out / "checkpoint.vpck"))
    assert params.d == 6
    assert variant.value == "joint"


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2


def test_predict_single_batch_and_unknown(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    batch = tmp_path / "batch.txt"
    batch.write_text("stem0\tsuf0\n\nnosuchstem+suf0\nstem1+suf1\n")
    pred_file = tmp_path / "pred.txt"
    rc = main(["predict", "--checkpoint", ckpt, "--input", str(batch),
               "--out", str(pred_file), "--out-dir", str(tmp_path / "p"),
               "--max-len", "12"])
    assert rc == 0
    lines = pred_file.read_text().splitlines()
    assert len(lines) == 3  # blank line skipped
    assert lines[1].startswith("UNK-MORPHEME")
    assert "nosuchstem" in lines[1]
    for line in (lines[0], lines[2]):
        assert len(line) <= 12

    capsys.readouterr()
    rc = main(["predict", "--checkpoint", ckpt, "--morphemes", "stem0+suf0",
               "--out-dir", str(tmp_path / "p2"), "--max-len", "12"])
    assert rc == 0
    single = capsys.readouterr().out.strip()
    assert single == lines[0]


def test_predict_gold_column_emits_surprisal(tmp_path):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    gold_form = synthlang.realize("stem0", "suf0")
    batch = tmp_path / "gold.txt"
    batch.write_text(f"stem0\tsuf0\t{gold_form}\n")
    pred_file = tmp_path / "predg.txt"
    rc = main(["predict", "--checkpoint", ckpt, "--input", str(batch),
               "--gold", "--out", str(pred_file), "--out-dir", str(tmp_path / "p")])
    assert rc == 0
    fields = pred_file.read_text().strip().split("\t")
    assert len(fields) == 2
    params, variant, alphabet, vocab = load_checkpoint(ckpt)
    entry = encode_entry(alphabet, vocab, ("stem0", "suf0"), gold_form)
    lp = spell_and_score(variant, [entry.morphemes], [entry.form], params, alphabet)[1][0]
    assert abs(float(fields[1]) + lp / (len(entry.form) + 1)) < 1e-6


def test_predict_gold_repeats_evaluate(tmp_path):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    # lemma, form, features
    rows = [line.split("\t") for line in Path(data).read_text().splitlines()]
    rows.append(["nosuchstem", rows[0][1], rows[0][2]])
    corpus = tmp_path / "with-unknown.tsv"
    corpus.write_text("".join(f"{lemma}\t{form}\t{feats}\n" for lemma, form, feats in rows))
    ev = tmp_path / "ev"
    assert main(["evaluate", "--checkpoint", ckpt, "--data", str(corpus), "--max-len", "12",
                 "--out-dir", str(ev)]) == 0
    items = json.loads((ev / "report.json").read_text())["items"]
    # the same rows as gold requests, then the first one with a foreign gold symbol
    lemma, form, feats = rows[0]
    batch = tmp_path / "gold.txt"
    batch.write_text("".join(f"{lemma}\t{feats}\t{form}\n" for lemma, form, feats in rows)
                     + f"{lemma}\t{feats}\t{form}\u00a7\n")
    pred_file = tmp_path / "pred.txt"
    assert main(["predict", "--checkpoint", ckpt, "--morphemes", f"{lemma}+{feats}",
                 "--input", str(batch), "--gold", "--max-len", "12",
                 "--out", str(pred_file), "--out-dir", str(tmp_path / "p")]) == 0
    plain, *lines, foreign = pred_file.read_text().splitlines()
    assert len(lines) == len(items) == len(rows)
    for line, item in zip(lines[:-1], items[:-1]):
        assert line == f"{item['predicted']}\t{item['surprisal']:.6f}"
    assert lines[-1] == "UNK-MORPHEME\tnosuchstem" and items[-1]["unknown"]
    assert not any(item["unknown"] for item in items[:-1])
    assert plain == items[0]["predicted"]
    assert foreign == f"{plain}\tGOLD-NOT-ENCODABLE"


def test_evaluate_writes_reports(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    ev = tmp_path / "ev"
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
               "--data", data, "--split-manifest", os.path.join(out, "split"),
               "--out-dir", str(ev), "--max-len", "12", "--run-name", "toy-test"])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "toy-test" in shown and "ACC" in shown
    report = json.loads((ev / "report.json").read_text())
    assert report["run"] == "toy-test"
    assert 0.0 <= report["accuracy"] <= 100.0
    assert report["n_items"] == len(report["items"])
    assert report["n_unknown"] == 0
    assert "EOS" in report["conventions"]
    assert (ev / "report.txt").exists()


def test_evaluate_with_no_scorable_item_writes_strict_json(tmp_path):
    # every morpheme is unknown, so no item has a surprisal: report.json
    # says null, which strict JSON parsers accept, where NaN is not JSON
    data, out = train_toy(tmp_path)
    rows = [line.split("\t") for line in Path(data).read_text().splitlines()][:3]
    corpus = tmp_path / "unknown.tsv"
    corpus.write_text("".join(f"nosuchstem{i}\t{form}\tnosuchfeature\n"
                              for i, (_, form, _) in enumerate(rows)))
    ev = tmp_path / "ev"
    assert main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
                 "--data", str(corpus), "--max-len", "12", "--out-dir", str(ev)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((ev / "report.json").read_text(), parse_constant=reject)
    assert report["mean_surprisal"] is None
    assert report["n_unknown"] == report["n_items"] == 3
    assert all(item["surprisal"] is None for item in report["items"])
    assert "nan" in (ev / "report.txt").read_text()


def test_evaluate_foreign_symbols_is_compatibility_error(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    bad = tmp_path / "bad.tsv"
    bad.write_text("stem0\tzzqzz\tsuf0\n")
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
               "--data", str(bad), "--out-dir", str(tmp_path / "ev2")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CompatibilityError" in err
    assert "'z'" in err and "'q'" in err


def test_evaluate_empty_test_set_is_data_error(tmp_path):
    data, out = train_toy(tmp_path)
    manifest = tmp_path / "empty-split"
    manifest.mkdir()
    (manifest / "train.idx").write_text("0\n")
    (manifest / "dev.idx").write_text("1\n")
    (manifest / "test.idx").write_text("")
    (manifest / "seed.txt").write_text("0\n")
    rc = main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
               "--data", data, "--split-manifest", str(manifest),
               "--out-dir", str(tmp_path / "ev3")])
    assert rc == 1


def test_export_embeddings_and_similarity(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    em = tmp_path / "em"
    rc = main(["export-embeddings", "--checkpoint", ckpt,
               "--projection", "pca2", "--out-dir", str(em)])
    assert rc == 0
    capsys.readouterr()
    rows = (em / "embeddings.tsv").read_text().splitlines()
    assert len(rows) == 10  # 6 stems + 4 suffixes
    assert all(len(r.split("\t")) == 3 for r in rows)  # id + 2 components

    rc = main(["export-embeddings", "--checkpoint", ckpt,
               "--similarity", "suf0,suf1", "--out-dir", str(em)])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert -1.0 <= value <= 1.0

    rc = main(["export-embeddings", "--checkpoint", ckpt,
               "--similarity", "suf0,nosuch", "--out-dir", str(em)])
    assert rc == 1


def export(tmp_path, params, vocab, projection):
    """Exit status and, on success, rows of ``export-embeddings`` on a
    checkpoint of ``params``."""
    tmp_path.mkdir(exist_ok=True)
    ckpt = tmp_path / "m.vpck"
    save_checkpoint(ckpt, params, Variant.POS_INDEPENDENT, Alphabet("ab"), vocab)
    rc = main(["export-embeddings", "--checkpoint", str(ckpt), "--projection", projection,
               "--out-dir", str(tmp_path)])
    if rc:
        return rc, None
    text = (tmp_path / "embeddings.tsv").read_text(encoding="utf-8")
    return rc, [line.split("\t") for line in text.splitlines()]


def test_export_none_gives_raw_rows(tmp_path):
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(0), 3, alphabet, 6)
    rc, rows = export(tmp_path, params, vocab, "none")
    assert rc == 0
    assert [ident for ident, *_ in rows] == ["m0", "m1", "m2"]
    for i, (_, *vec) in enumerate(rows):  # the checkpoint holds f32 values
        assert np.array_equal(np.array(vec, dtype=np.float32),
                              params.morph_emb[i].astype(np.float32))
    assert len(rows) == 3 and all(len(row) == 7 for row in rows)


def test_export_pca2_shape_and_errors(tmp_path):
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(1), 3, alphabet, 6)
    rc, rows = export(tmp_path / "pca2", params, vocab, "pca2")
    assert rc == 0
    assert all(len(row) == 1 + 2 for row in rows)
    assert export(tmp_path / "tsne", params, vocab, "tsne")[0] == 2
    solo = init_params(np.random.default_rng(2), 1, alphabet, 6)
    assert export(tmp_path / "solo", solo, MorphemeVocab(["only"]), "pca2")[0] == 2


def test_resample_emits_curve_columns(tmp_path):
    slots = synthlang.harmony_slots(6, 4)
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, slots, np.random.default_rng(0))
    rs = tmp_path / "rs"
    rc = main(["resample", "--weighted-data", str(wdata), "--sizes", "4,8",
               "--resamples", "2", "--dim", "8", "--epochs", "2",
               "--variants", "pos-indep,joint", "--out-dir", str(rs)])
    assert rc == 0
    lines = (rs / "curve.tsv").read_text().splitlines()
    assert lines[0] == "k\tvariant\tacc_mean\tacc_sd\tmld_mean\tmld_sd\tnll_mean\tnll_sd"
    assert len(lines) == 1 + 2 * 2  # sizes x variants
    ks = [line.split("\t")[0] for line in lines[1:]]
    assert ks == ["4", "8", "4", "8"]


def test_resample_size_beyond_pool_is_config_error(tmp_path):
    slots = synthlang.harmony_slots(6, 4)
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, slots, np.random.default_rng(0))
    rc = main(["resample", "--weighted-data", str(wdata), "--sizes", "5000",
               "--resamples", "2", "--out-dir", str(tmp_path / "rs")])
    assert rc == 2


def resample_argv(tmp_path, out_name, *extra):
    wdata = tmp_path / "w.tsv"
    if not wdata.exists():
        synthlang.write_weighted_tsv(wdata, synthlang.harmony_slots(6, 4),
                                     np.random.default_rng(0))
    return ["resample", "--weighted-data", str(wdata), "--sizes", "4,8", "--resamples", "2",
            "--dim", "8", "--epochs", "2", "--out-dir", str(tmp_path / out_name), *extra]


def record_pools(monkeypatch, cores=2):
    """``cores`` usable cores; returns the worker counts of the process pools
    that resample starts from then on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    pools = []

    class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
    return pools


def hide_openblas(monkeypatch, how):
    """numpy's OpenBLAS out of ctypes' reach, as with another BLAS: no
    library to open, or a library without the thread symbols."""
    def cdll(path, *args, **kwargs):
        if how == "no-library":
            raise OSError(f"{path}: cannot open shared object file")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)


def unpinned_env(**extra):
    """This process's environment without a BLAS thread setting, with
    vecphon importable."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(cli.__file__) + "/..",
                                         os.environ.get("PYTHONPATH", "")])
    return dict(env, **extra)


def test_resample_pool_has_one_worker_per_core_up_to_the_cells(tmp_path, monkeypatch):
    pools = record_pools(monkeypatch, cores=8)
    assert main(resample_argv(tmp_path, "three", "--sizes", "4", "--resamples", "3")) == 0
    assert pools == [3]  # 3 cells on 8 cores
    for resamples in ("1", "0", "-1"):  # one cell runs in process; zero or fewer start no pool
        assert main(resample_argv(tmp_path, "few", "--sizes", "4",
                                  "--resamples", resamples)) == 2
    assert pools == [3]
    assert multiprocessing.active_children() == []


def test_resample_output_does_not_depend_on_worker_count(tmp_path, monkeypatch, capsys):
    variants = ("--variants", "pos-indep,pos-dep,joint")
    pools = record_pools(monkeypatch)
    with monkeypatch.context() as without_openblas:
        hide_openblas(without_openblas, "no-symbol")
        assert main(resample_argv(tmp_path, "serial", *variants)) == 0
    serial_out = capsys.readouterr().out
    assert pools == []
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(resample_argv(tmp_path, "unpinned", *variants)) == 0
    assert pools == [2]  # every run pins one BLAS thread, so an unpinned run forks too
    assert capsys.readouterr().out == serial_out
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert main(resample_argv(tmp_path, "forked", *variants)) == 0
    assert pools == [2, 2]
    assert capsys.readouterr().out == serial_out
    curves = [(tmp_path / d / "curve.tsv").read_bytes() for d in ("serial", "unpinned", "forked")]
    assert curves[1] == curves[0] and curves[2] == curves[0]
    assert len(curves[0].splitlines()) == 1 + 2 * 3
    assert multiprocessing.active_children() == []
    assert cli._run_cell.cell is None  # the pool kept no reference to the last cell's data


@pytest.mark.parametrize("how", ["no-library", "no-symbol"])
def test_without_openblas_train_and_resample_run_in_process(tmp_path, monkeypatch, capfd, how):
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(training, "SHARD_MIN", 1)  # so that a d=8 model shards on two cores
    forks = []
    fork = training.Adam._fork
    monkeypatch.setattr(training.Adam, "_fork",
                        lambda self, *args: forks.append(1) or fork(self, *args))
    data, _ = write_toy(tmp_path)

    def train_run(name):
        out = tmp_path / name
        assert main(["train", "--data", data, "--dim", "8", "--epochs", "2",
                     "--out-dir", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("trainlog.tsv", "checkpoint.vpck")]

    sharded = train_run("sharded")
    assert forks == [1]  # with OpenBLAS in reach, train forks its helper
    hide_openblas(monkeypatch, how)
    assert training.blas_threads(1) is None and training.usable_cores() == 1
    assert train_run("alone") == sharded
    assert main(resample_argv(tmp_path, "resample")) == 0
    assert capfd.readouterr().err == ""
    assert forks == [1] and pools == []


def test_resample_worker_failures_end_in_one_error_line(tmp_path, monkeypatch, capfd):
    pools = record_pools(monkeypatch)
    with monkeypatch.context() as without_openblas:
        hide_openblas(without_openblas, "no-library")
        assert main(resample_argv(tmp_path, "serial", "--lr", "1e300")) == 1
    serial_err = capfd.readouterr().err
    assert main(resample_argv(tmp_path, "forked", "--lr", "1e300")) == 1
    out, err = capfd.readouterr()
    assert err == serial_err and err.startswith("error: TrainingError: ")
    assert len(err.splitlines()) == 1 and "RuntimeWarning" not in err

    test_process = os.getpid()

    def run_out_of_memory(*args, **kwargs):
        assert os.getpid() != test_process, "the cell ran in the test process"
        raise MemoryError

    def die(*args, **kwargs):
        assert os.getpid() != test_process, "the cell ran in the test process"
        os._exit(3)

    for failing_train, message in ((run_out_of_memory, "error: MemoryError: out of memory"),
                                   (die, "error: TrainingError: a resample worker process died")):
        monkeypatch.setattr(cli, "train", failing_train)
        assert main(resample_argv(tmp_path, "forked")) == 1
        out, err = capfd.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith(message), err
        assert "Traceback" not in out + err
    assert pools == [2, 2, 2]
    assert multiprocessing.active_children() == []


# A resample on two cores whose workers record their pids and then block.
KILLED_RESAMPLE = """
import json, os, sys, time
from vecphon import cli, training
os.sched_getaffinity = lambda pid: {0, 1}
def train(*args, **kwargs):
    with open(sys.argv[1], "a") as f:
        f.write(f"{os.getpid()}\\n")
    time.sleep(600)
cli.train = train
cli.main(json.loads(sys.argv[2]))
"""


def running(pid):
    """Whether pid is a live process: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_killed_resample_leaves_no_worker(tmp_path, sig):
    pid_file = tmp_path / "workers"
    env = unpinned_env()
    proc = subprocess.Popen([sys.executable, "-c", KILLED_RESAMPLE, str(pid_file),
                             json.dumps(resample_argv(tmp_path, "out"))],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = pid_file.read_text().split() if pid_file.exists() else []
        assert len(workers) == 2, "resample did not start two workers"
        proc.send_signal(sig)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(running(int(pid)) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(int(pid)) for pid in workers), "a worker outlived resample"
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if running(int(pid)):
                os.kill(int(pid), signal.SIGKILL)


# A train in a fresh process; prints numpy's BLAS thread count before and after main.
TRAIN_IN_CHILD = """
import json, sys
from vecphon import cli, training
before = training.blas_threads()
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([before, training.blas_threads()]))
sys.exit(code)
"""


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    # small products may round alike at any thread count; the thread count
    # read after main is what shows the pin
    data, _ = write_toy(tmp_path)
    runs = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}"
        argv = ["train", "--data", data, "--variant", "pos-dep", "--dim", "16", "--epochs", "2",
                "--dropout", "0.1", "--seed", "5", "--out-dir", str(out)]
        env = unpinned_env() if threads is None else unpinned_env(OPENBLAS_NUM_THREADS=threads)
        child = subprocess.run([sys.executable, "-c", TRAIN_IN_CHILD, json.dumps(argv)],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0 and child.stderr == "", child.stderr
        before, after = json.loads(child.stdout.splitlines()[-1])
        assert after == (None if before is None else 1), (threads, before, after)
        runs.append([(out / name).read_bytes() for name in ("trainlog.tsv", "checkpoint.vpck")])
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_train_bytes_do_not_depend_on_the_shard_count(tmp_path, monkeypatch, variant):
    # the shard minimum and the core count force 1 and 2 optimizer shards
    # (no helper, and one updating the second half) on any host; the update
    # is elementwise, so both write the same trainlog and checkpoint
    data, _ = write_toy(tmp_path)
    monkeypatch.setattr(training, "SHARD_MIN", 1)
    forks = []
    fork = training.Adam._fork
    monkeypatch.setattr(training.Adam, "_fork",
                        lambda self, *args: forks.append(1) or fork(self, *args))
    for batch in ("1", "3"):
        runs = []
        for shards in (1, 2):
            monkeypatch.setattr(training, "usable_cores", lambda: shards)
            out = tmp_path / f"{batch}-{shards}"
            assert main(["train", "--data", data, "--variant", variant, "--dim", "8",
                         "--epochs", "2", "--batch-size", batch, "--dropout", "0.1",
                         "--seed", "5", "--out-dir", str(out)]) == 0
            runs.append([(out / name).read_bytes() for name in ("trainlog.tsv", "checkpoint.vpck")])
        assert runs[1] == runs[0], (variant, batch)
    assert forks == [1, 1]  # one helper per 2-shard run


# A d=200 train on two cores that records its optimizer helper's pid.
SHARDED_TRAIN = """
import json, os, sys
from vecphon import cli, training
os.sched_getaffinity = lambda pid: {0, 1}
fork = training.Adam._fork
def recorded(self, *args):
    helper = fork(self, *args)
    with open(sys.argv[1], "a") as f:
        f.write(f"{helper[0]}\\n")
    return helper
training.Adam._fork = recorded
code = cli.main(json.loads(sys.argv[2]))
with open(sys.argv[1]) as f:  # a helper that train reaped has no /proc entry left
    print(json.dumps([os.path.exists(f"/proc/{pid}") for pid in f.read().split()]))
sys.exit(code)
"""


def start_sharded_train(tmp_path):
    """The SHARDED_TRAIN process, once it has forked its one helper, and
    that helper's pid."""
    data, _ = write_toy(tmp_path)
    argv = ["train", "--data", data, "--dim", "200", "--epochs", "100000", "--min-lr", "1e-30",
            "--out-dir", str(tmp_path / "out")]
    env = unpinned_env()
    pid_file = tmp_path / "helpers"
    proc = subprocess.Popen([sys.executable, "-c", SHARDED_TRAIN, str(pid_file), json.dumps(argv)],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60

    def written_pids():  # the file exists from its open, before the pid's line is written
        text = pid_file.read_text() if pid_file.exists() else ""
        return text.split() if text.endswith("\n") else []
    while not written_pids() and time.monotonic() < deadline and proc.poll() is None:
        time.sleep(0.05)
    helpers = written_pids()
    if len(helpers) != 1:
        proc.kill()
        proc.communicate()
        pytest.fail(f"train did not fork one optimizer helper: {helpers}")
    time.sleep(0.5)  # into the training steps
    return proc, int(helpers[0])


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_killed_train_leaves_no_helper(tmp_path, sig):
    proc, helper = start_sharded_train(tmp_path)
    try:
        proc.send_signal(sig)
        proc.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while running(helper) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(helper), "an optimizer helper outlived train"
    finally:
        proc.kill()
        proc.communicate()
        if running(helper):
            os.kill(helper, signal.SIGKILL)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states in /proc")
def test_dead_helper_ends_train_in_one_error_line(tmp_path):
    proc, helper = start_sharded_train(tmp_path)
    try:
        os.kill(helper, signal.SIGKILL)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 1
    lines = err.strip().splitlines()
    assert lines[-1] == "error: TrainingError: an optimizer helper process died", err
    assert sum(line.startswith("error:") for line in lines) == 1 and "Traceback" not in err
    assert json.loads(out) == [False]  # reaped by train, not left a zombie


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM], ids=["EAGAIN", "ENOMEM"])
def test_failed_helper_fork_closes_its_pipes(tmp_path, monkeypatch, capfd, code):
    # under a process or memory limit the helper's fork fails: the four
    # pipe ends it opened are closed, and train ends in one error line
    failure = OSError(code, os.strerror(code))  # EAGAIN makes a BlockingIOError

    def no_process():
        raise failure

    data, _ = write_toy(tmp_path)
    monkeypatch.setattr(os, "fork", no_process)
    fds = open_fds()
    with pytest.raises(OSError):
        training.Adam(np.zeros(4), np.zeros(4), helper=True)
    assert open_fds() == fds
    monkeypatch.setattr(training, "SHARD_MIN", 1)  # so that a d=8 model asks for the helper
    monkeypatch.setattr(training, "usable_cores", lambda: 2)
    assert main(["train", "--data", data, "--dim", "8", "--epochs", "2",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capfd.readouterr().err
    assert err == f"error: {type(failure).__name__}: {failure}\n", err
    assert open_fds() == fds


def write_manifest(directory, **files):
    """A split manifest directory; a file given as None is left out, one
    given as bytes is written as they are."""
    directory.mkdir()
    base = {"train.idx": "0\n1\n2\n3\n4\n5\n", "dev.idx": "6\n", "test.idx": "7\n",
            "seed.txt": "0\n"}
    for name, text in {**base, **files}.items():
        if isinstance(text, bytes):
            (directory / name).write_bytes(text)
        elif text is not None:
            (directory / name).write_text(text)
    return str(directory)


def test_exit_codes(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, synthlang.harmony_slots(6, 4),
                                 np.random.default_rng(0))
    bad_variant = tmp_path / "bad-variant.cfg"
    bad_variant.write_text("variant=bogus\n")
    bad_coverage = tmp_path / "bad-coverage.cfg"
    bad_coverage.write_text("coverage=yes\n")
    bad_gold = tmp_path / "bad-gold.cfg"
    bad_gold.write_text("gold=1\n")
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    undecodable = tmp_path / "undecodable.tsv"
    undecodable.write_bytes(b"stem0\tiki\tsuf0\nstem1\ti\xffi\tsuf1\n")
    undecodable_weighted = tmp_path / "undecodable-w.tsv"
    undecodable_weighted.write_bytes(b"iki\tstem0\tsuf0\t3\ni\xffi\tstem1\tsuf1\t2\n")
    huge_count = tmp_path / "huge-count.tsv"   # no float64 holds it
    huge_count.write_text(f"iki\tstem0\tsuf0\t3\nipi\tstem1\tsuf1\t{10 ** 400}\n")
    undecodable_cfg = tmp_path / "undecodable.cfg"
    undecodable_cfg.write_bytes(b"dim=8\nrun-name=\xff\n")
    no_equals = tmp_path / "no-equals.cfg"
    no_equals.write_text("dim 8\n")
    one_column = tmp_path / "one-column.tsv"
    one_column.write_text("stem0+suf0\n")
    manifests = {
        "non-integer": write_manifest(tmp_path / "m1", **{"dev.idx": "6\nsix\n"}),
        "no-seed": write_manifest(tmp_path / "m2", **{"seed.txt": None}),
        "repeated": write_manifest(tmp_path / "m3", **{"train.idx": "0\n1\n1\n"}),
        "overlap": write_manifest(tmp_path / "m4", **{"test.idx": "7\n6\n"}),
        "out-of-range": write_manifest(tmp_path / "m5", **{"test.idx": "99\n"}),
        "undecodable": write_manifest(tmp_path / "m6", **{"dev.idx": b"6\n\xff\n"}),
        "directory": write_manifest(tmp_path / "m7", **{"test.idx": None}),
        "two-seeds": write_manifest(tmp_path / "m8", **{"seed.txt": "0\n1\n"}),
    }
    os.mkdir(os.path.join(manifests["directory"], "test.idx"))
    negative_seed = tmp_path / "negative-seed.cfg"
    negative_seed.write_text("seed=-1\n")
    nul_data = tmp_path / "nul-data.cfg"
    nul_data.write_text("data=a\0b.tsv\n")
    nul_out_dir = tmp_path / "nul-out-dir.cfg"
    nul_out_dir.write_text("out-dir=x\0y\n")
    x = str(tmp_path / "x")
    train = ["train", "--data", data, "--out-dir", x, "--dim", "8", "--epochs", "1"]
    evaluate = ["evaluate", "--checkpoint", ckpt, "--data", data, "--out-dir", x]
    cases = [
        (["--help"], 0),
        (["train", "--help"], 0),
        ([], 2),                                       # subcommand required
        (["train", "--no-such-flag"], 2),              # usage
        (["train", "--out-dir", x], 2),                # no corpus
        (["train", "--data", data, "--weighted-data", str(wdata), "--out-dir", x], 2,
         "not both"),
        (["train", "--config", str(no_equals), "--data", data, "--out-dir", x], 2,
         "expected key=value"),
        (["train", "--config", str(bad_variant), "--data", data, "--out-dir", x], 2),
        (["resample", "--weighted-data", str(wdata), "--variants", "bogus",
          "--sizes", "4", "--out-dir", x], 2),
        (["train", "--data", data, "--out-dir", x, "--dim", "0"], 2),
        (train + ["--dim", "1000000000"], 1, "model parameters"),   # refused before allocating
        (train + ["--sample-k", "0"], 2, "sample 0 items"),
        (train + ["--sample-k", "-2"], 2, "sample -2 items"),
        (["resample", "--weighted-data", str(wdata), "--sizes", "4,0",
          "--out-dir", x], 2, "size 0"),
        (train + ["--split-fracs", "0.8,nan,0.1"], 2, "split fractions"),
        (train + ["--split-fracs", "nan,0.1,0.1"], 2, "split fractions"),
        (train + ["--split-fracs", "0.8,inf,0.1"], 2, "split fractions"),
        (["train", "--config", str(bad_coverage), "--data", data, "--out-dir", x], 2),
        (["predict", "--config", str(bad_gold), "--checkpoint", ckpt,
          "--morphemes", "a+b", "--out-dir", x], 2),
        (["predict", "--morphemes", "a+b", "--out-dir", x], 2),   # no checkpoint
        (["predict", "--checkpoint", ckpt, "--out-dir", x], 2, "nothing to predict"),
        (["predict", "--checkpoint", ckpt, "--gold", "--input", str(one_column),
          "--out-dir", x], 1, "gold column"),
        (["resample", "--sizes", "4", "--out-dir", x], 2, "needs --weighted-data"),
        (["evaluate", "--data", data, "--out-dir", x], 2),
        (["export-embeddings", "--out-dir", x], 2),
        (["predict", "--checkpoint", ckpt, "--morphemes", "a+b", "--max-len", "0",
          "--out-dir", x], 2),
        (evaluate + ["--max-len", "0"], 2),
        (evaluate + ["--max-len", str(cli.MAX_LEN_LIMIT + 1)], 2, "max-len"),
        (evaluate + ["--max-len", "1" + "0" * 30], 2, "max-len"),   # refused before decoding
        (train + ["--seed", "-1"], 2, "seed"),
        (["resample", "--weighted-data", str(wdata), "--sizes", "4", "--seed", "-1",
          "--out-dir", x], 2, "seed"),
        (train + ["--config", str(negative_seed)], 2, "seed"),
        (["resample", "--weighted-data", str(wdata), "--sizes", "4",
          "--max-len", "-1", "--out-dir", x], 2),
        (["predict", "--checkpoint", str(tmp_path / "nope.vpck"),
          "--morphemes", "a+b", "--out-dir", x], 1),
        (["train", "--data", str(empty), "--out-dir", x], 1),
        (["train", "--data", data, "--dim", "8", "--epochs", "1",
          "--out-dir", "/dev/null/x"], 1),             # fails before training
        (["train", "--data", str(undecodable), "--out-dir", x], 1),
        (["train", "--weighted-data", str(undecodable_weighted), "--out-dir", x], 1),
        (["train", "--weighted-data", str(huge_count), "--sample-k", "3", "--out-dir", x], 1,
         f"ParseError: {huge_count}:2: count"),
        (["resample", "--weighted-data", str(huge_count), "--sizes", "4", "--out-dir", x], 1,
         f"ParseError: {huge_count}:2: count"),
        (["predict", "--checkpoint", ckpt, "--input", str(undecodable), "--out-dir", x], 1),
        (["evaluate", "--config", str(undecodable_cfg), "--checkpoint", ckpt,
          "--data", data, "--out-dir", x], 2),
        (["train", "--config", str(nul_data), "--out-dir", x], 2, "config: "),
        (["train", "--config", str(nul_out_dir), "--data", data], 2, "config: "),
        (["predict", "--checkpoint", "a\0b", "--morphemes", "a+b", "--out-dir", x], 2,
         "config: "),
        (["predict", "--config", "a\nb", "--morphemes", "a+b", "--out-dir", x], 2,
         "no such file: a\\nb"),           # the line break is written as \n
        # values that config.txt could not replay: a line break, blank ends
        (evaluate + ["--run-name", "a\nb"], 2, "config: run-name"),
        (["train", "--data", " " + data, "--out-dir", x], 2, "config: data"),
        (evaluate + ["--run-name", "ev "], 2, "config: run-name"),
        (["train", "--data= " + data, "--out-dir", x], 2, "config: data"),
        (["evaluate", "--run-name", "\udcff", "--checkpoint", ckpt, "--data", data,
          "--out-dir", x], 2, "not UTF-8"),   # how Python decodes a non-UTF-8 argv byte
    ]
    # a bad value for every typed, choices or boolean option of every
    # subcommand, through a config file and as a flag
    _, subcommands = build_parser()
    for command, sub_parser in subcommands.items():
        for key, action in option_actions(sub_parser).items():
            if action.nargs == 0 or action.type is not None or action.choices is not None:
                cfg = tmp_path / f"bad-{command}-{key}.cfg"
                cfg.write_text(f"{key}=bogus\n")
                flag = action.option_strings[0]
                cases.append(([command, "--config", str(cfg), "--out-dir", x], 2, f"for {key}"))
                cases.append(([command, f"{flag}=bogus", "--out-dir", x], 2, flag))
    for command, *option in REMOVED_OPTIONS:
        cases.append(([command, *option, "--out-dir", x], 2, option[0]))
    for name, manifest in manifests.items():    # the error names the manifest file
        cases.append((train + ["--split-manifest", manifest], 1, manifest))
        cases.append((evaluate + ["--split-manifest", manifest], 1, manifest))

    for argv, code, *needle in cases:
        capsys.readouterr()
        assert main(argv) == code, argv
        out, err = capsys.readouterr()
        assert "Traceback" not in err, argv
        if code:
            assert "trained" not in out, argv
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == (0 if code == 0 else 1), (argv, err)
        if needle:
            assert needle[0] in errors[0], (argv, err)


HUGE = "1" + "0" * 30
# option values that a fuzzed run draws besides those of the option's type
HOSTILE = ["", " ", "\0", "x\0y", "\x01", "\t", "\n", "\r", "\x7f", "-1", "0", HUGE,
           "-" + HUGE, "1e308", "-1e-308", "nan", "inf", ",", "+", "=", "ä", "∅", "語",
           "\u202e", "\udcff", "a" * 300]
HOSTILE_BYTES = [b"\0", b"\xff", b"\xc3", b"\t", b"\n", b"\r", b"\r\n", b"=", b"+", b",",
                 b"-1", b"0", HUGE.encode(), b"1e308", b"nan", "∅".encode(), "ä".encode()]
# options whose size sets the work: drawn without HUGE, so every case ends
SIZING = {"epochs", "resamples"}


def mutate(rnd, data: bytes) -> bytes:
    """``data`` after one to three random edits: a hostile byte string
    put in, a span deleted or doubled, or the rest cut off."""
    for _ in range(rnd.randint(1, 3)):
        i = rnd.randint(0, len(data))
        j = min(len(data), i + rnd.randint(0, 12))
        data = rnd.choice([data[:i] + rnd.choice(HOSTILE_BYTES) + data[i:],
                           data[:i] + data[j:], data[:j] + data[i:j] + data[j:], data[:i]])
    return data


def test_fuzzed_runs_keep_the_failure_contract(tmp_path, monkeypatch, capsys):
    # seeded random runs of every subcommand: option values of each
    # option's type or hostile, files with mutated bytes, and config files
    # of random lines. Each ends with 0, 1 or 2, and a failure with exactly
    # one error line, the last line on stderr; a success writes nothing there
    data, out = train_toy(tmp_path)
    monkeypatch.chdir(tmp_path)   # relative paths drawn below land here
    wdata = "w.tsv"
    synthlang.write_weighted_tsv(wdata, synthlang.harmony_slots(6, 4), np.random.default_rng(0))
    with open("requests.tsv", "w") as f:
        f.write("stem0+suf0\nstem1\tsuf1\tikiki\nstem2+nope\n")
    files = {"data": data, "weighted-data": wdata, "input": "requests.tsv",
             "checkpoint": os.path.join(out, "checkpoint.vpck"),
             "split-manifest": os.path.join(out, "split")}
    texts = {"morphemes": ["stem0+suf0", "stem1+suf2+suf0", "suf0"], "sizes": ["4", "4,8", "20"],
             "split-fracs": ["0.8,0.1,0.1", "0.5,0.25,0.25"], "variants": ["pos-dep,joint"],
             "similarity": ["suf0,suf1", "stem0,stem0"]}
    base = {"train": {"data": data, "dim": "4", "epochs": "1"},
            "predict": {"checkpoint": files["checkpoint"], "morphemes": "stem0+suf0"},
            "evaluate": {"checkpoint": files["checkpoint"], "data": data},
            "export-embeddings": {"checkpoint": files["checkpoint"]},
            "resample": {"weighted-data": wdata, "sizes": "4", "resamples": "2",
                         "dim": "4", "epochs": "1"}}
    _, subcommands = build_parser()
    rnd = random.Random(17)

    def path_value(key):
        """The option's own file, or a copy of it or of another with
        mutated bytes (in one file, for a split manifest)."""
        src = files.get(key) or rnd.choice(list(files.values()))
        if rnd.random() < 0.4:
            return src
        name = target = f"m{rnd.randrange(10**9)}"
        if os.path.isdir(src):
            shutil.copytree(src, name)
            target = os.path.join(name, rnd.choice(sorted(os.listdir(name))))
        else:
            shutil.copy(src, name)
        with open(target, "rb") as f:
            raw = f.read()
        with open(target, "wb") as f:
            f.write(mutate(rnd, raw))
        return name

    def value(key, action):
        if rnd.random() < 0.3:
            return rnd.choice([v for v in HOSTILE if not (key in SIZING and v == HUGE)])
        if action.nargs == 0:
            return rnd.choice(["true", "false"])
        if action.choices is not None:
            return rnd.choice(list(action.choices))
        if action.type is int:
            return rnd.choice(["-1", "0", "1", "2", "4"] + ([] if key in SIZING else [HUGE]))
        if action.type is float:
            return rnd.choice(["0", "0.1", "0.5", "1", "1e-300", "1e300", "nan", "inf"])
        return rnd.choice(texts.get(key) or [path_value(key), "out", "no/such/file"])

    for case in range(900):
        command = rnd.choice(list(subcommands))
        actions = option_actions(subcommands[command])
        settings = dict(base[command], **{"out-dir": "out"})
        for key in rnd.sample(sorted(actions), rnd.randint(1, 3)):
            if rnd.random() < 0.2:
                settings.pop(key, None)
            else:
                settings[key] = value(key, actions[key])
        argv = [command]
        for key, text in settings.items():
            if actions[key].nargs != 0:
                argv.append(f"--{key}={text}")
            elif text == "true":
                argv.append(actions[key].option_strings[0])
        if rnd.random() < 0.25:
            lines = [f"{key}={value(key, actions[key])}"
                     for key in rnd.sample(sorted(actions), rnd.randint(1, 3))]
            config = "\n".join(lines).encode("utf-8", "surrogateescape")
            with open(f"c{case}.cfg", "wb") as f:
                f.write(mutate(rnd, config) if rnd.random() < 0.5 else config)
            argv.append(f"--config=c{case}.cfg")
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2), (case, argv)
        if code:
            assert [line for line in err if line.startswith("error:")] == err[-1:], (case, argv, err)
        else:
            assert err == [], (case, argv, err)


# each comma-separated option with a blank value, a bad value and a wrong
# count: (option, text, exit status, text of its one error line)
LIST_OPTION_CASES = [
    ("split-fracs", "0.8,,0.1", 2, "config: bad split fractions '0.8,,0.1': blank value"),
    ("split-fracs", "0.8,x,0.1", 2, "config: bad split fractions '0.8,x,0.1': could not convert"),
    ("split-fracs", "0.8,0.2", 2,
     "config: split fractions need 3 comma-separated values, got '0.8,0.2'"),
    ("split-fracs", "", 2, "config: split fractions need 3 comma-separated values, got ''"),
    ("sizes", "4,,8", 2, "config: bad sizes list '4,,8': blank value"),
    ("sizes", "4,x", 2, "config: bad sizes list '4,x': invalid literal for int()"),
    ("sizes", "", 2, "config: bad sizes list '': blank value"),
    ("variants", "pos-indep,", 2, "config: bad variants list 'pos-indep,': blank value"),
    ("variants", "pos-indep,mystery", 2,
     "config: bad variants list 'pos-indep,mystery': unknown variant tag 'mystery'; "
     "choose from pos-indep, pos-dep, joint"),
    ("variants", "", 2, "config: bad variants list '': blank value"),
    ("similarity", "suf0,", 2, "config: bad --similarity identifiers 'suf0,': blank value"),
    ("similarity", "suf0,nope", 1, "VocabularyError: unknown morpheme 'nope'"),
    ("similarity", "suf0,suf1,suf2", 2,
     "config: --similarity identifiers need 2 comma-separated values, got 'suf0,suf1,suf2'"),
    ("similarity", "", 2, "config: --similarity identifiers need 2 comma-separated values, got ''"),
]


def test_list_options_reject_blank_bad_and_miscounted_values(tmp_path, capsys):
    data, out = train_toy(tmp_path)
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, synthlang.harmony_slots(6, 4),
                                 np.random.default_rng(0))
    x = str(tmp_path / "x")
    runs = {"split-fracs": ["train", "--data", data, "--dim", "8", "--epochs", "1"],
            "sizes": ["resample", "--weighted-data", str(wdata)],
            "variants": ["resample", "--weighted-data", str(wdata), "--sizes", "4"],
            "similarity": ["export-embeddings",
                           "--checkpoint", os.path.join(out, "checkpoint.vpck")]}
    for i, (option, text, code, message) in enumerate(LIST_OPTION_CASES):
        cfg = tmp_path / f"list-{i}.cfg"
        cfg.write_text(f"{option}={text}\n")
        argvs = [runs[option] + [f"--{option}={text}", "--out-dir", x]]
        if text:  # an empty config value leaves the option unset
            argvs.append(runs[option] + ["--config", str(cfg), "--out-dir", x])
        for argv in argvs:
            capsys.readouterr()
            assert main(argv) == code, argv
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1 and errors[0].startswith("error: " + message), (argv, errors)


def test_directory_inputs_are_data_errors(tmp_path, capsys):
    # a directory given where a text file is expected: a corpus, --input,
    # --config or a split-manifest file (here m/test.idx)
    data, out = train_toy(tmp_path)
    folder = tmp_path / "folder"
    folder.mkdir()
    manifest = write_manifest(tmp_path / "m", **{"test.idx": None})
    os.mkdir(os.path.join(manifest, "test.idx"))
    x = str(tmp_path / "x")
    cases = [
        (["train", "--data", data, "--dim", "8", "--epochs", "1",
          "--split-manifest", manifest, "--out-dir", x], "DataError", "test.idx"),
        (["train", "--data", str(folder), "--out-dir", x], "DataError", str(folder)),
        (["train", "--weighted-data", str(folder), "--out-dir", x], "DataError", str(folder)),
        (["predict", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
          "--input", str(folder), "--out-dir", x], "DataError", str(folder)),
        (["train", "--config", str(folder), "--out-dir", x], "config", str(folder)),
    ]
    for argv, kind, needle in cases:
        capsys.readouterr()
        assert main(argv) == (2 if kind == "config" else 1), argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {kind}: "), (argv, err)
        assert needle in err[0] and "Is a directory" in err[0], (argv, err)


def test_diverging_train_is_one_training_error_without_numpy_warnings(tmp_path, capsys):
    data, _ = write_toy(tmp_path)
    out = tmp_path / "x"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["train", "--data", data, "--dim", "8", "--epochs", "1", "--lr", "1e300",
                   "--out-dir", str(out)])
    assert rc == 1
    assert not (out / "checkpoint.vpck").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: TrainingError"), err


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys):
    data, _ = write_toy(tmp_path)

    def refuse(*args):
        raise MemoryError

    monkeypatch.setattr("vecphon.training.init_params", refuse)
    capsys.readouterr()
    assert main(["train", "--data", data, "--dim", "8", "--out-dir", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: MemoryError: out of memory"]


def test_train_with_sample_k(tmp_path):
    slots = synthlang.harmony_slots(6, 4)
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, slots, np.random.default_rng(0))
    out = tmp_path / "runk"
    rc = main(["train", "--weighted-data", str(wdata), "--sample-k", "8",
               "--out-dir", str(out), "--dim", "8", "--epochs", "2"])
    assert rc == 0
    msg = (out / "config.txt").read_text()
    assert "sample-k=8" in msg
    assert (out / "checkpoint.vpck").exists()


def test_config_echo_lists_every_option_of_the_subcommand(tmp_path):
    data, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    wdata = tmp_path / "w.tsv"
    synthlang.write_weighted_tsv(wdata, synthlang.harmony_slots(6, 4),
                                 np.random.default_rng(0))
    runs = {"train": out}
    for command, argv in {
        "predict": ["--checkpoint", ckpt, "--morphemes", "stem0+suf0", "--max-len", "12"],
        "evaluate": ["--checkpoint", ckpt, "--data", data, "--max-len", "12"],
        "export-embeddings": ["--checkpoint", ckpt, "--similarity", "suf0,suf1"],
        "resample": ["--weighted-data", str(wdata), "--sizes", "4", "--resamples", "2",
                     "--dim", "8", "--epochs", "1", "--max-len", "12"],
    }.items():
        runs[command] = str(tmp_path / command)
        assert main([command, *argv, "--out-dir", runs[command]]) == 0, command
    _, subcommands = build_parser()
    for command, out_dir in runs.items():
        lines = Path(out_dir, "config.txt").read_text().splitlines()
        assert lines[0] == f"command={command}"
        keys = [line.split("=", 1)[0] for line in lines[1:]]
        assert sorted(keys) == sorted(option_actions(subcommands[command])), command


def test_config_echo_replays_the_run(tmp_path):
    # train leaves sample-k, split-manifest and weighted-data unset,
    # evaluate leaves run-name and weighted-data unset
    data, out = train_toy(tmp_path)
    ev = str(tmp_path / "ev")
    assert main(["evaluate", "--checkpoint", os.path.join(out, "checkpoint.vpck"),
                 "--data", data, "--split-manifest", os.path.join(out, "split"),
                 "--max-len", "12", "--out-dir", ev]) == 0
    for command, first, names in (
            ("train", out, ["checkpoint.vpck", "trainlog.tsv", "split/train.idx",
                            "split/dev.idx", "split/test.idx", "split/seed.txt"]),
            ("evaluate", ev, ["report.json"])):
        config = Path(first, "config.txt")
        bom = Path(first + "-bom.txt")  # the echo as a Windows editor saves it
        bom.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        for again, path in ((first + "-replay", config), (first + "-bom", bom)):
            assert main([command, "--config", str(path), "--out-dir", again]) == 0, command
            for name in names:
                a, b = (Path(d, name).read_bytes() for d in (first, again))
                assert a == b, (command, name)
            echoes = [[line for line in Path(d, "config.txt").read_text().splitlines()
                       if not line.startswith("out-dir=")] for d in (first, again)]
            assert echoes[0] == echoes[1], command


def test_checkpoint_from_config_file_matches_the_flag(tmp_path, capsys):
    _, out = train_toy(tmp_path)
    ckpt = os.path.join(out, "checkpoint.vpck")
    cfg = tmp_path / "shared.cfg"
    # keys of other subcommands (variant, sizes) are left to them
    cfg.write_text(f"checkpoint={ckpt}\nmax-len=12\nvariant=joint\nsizes=4\n")
    capsys.readouterr()
    assert main(["predict", "--checkpoint", ckpt, "--morphemes", "stem0+suf0",
                 "--max-len", "12", "--out-dir", str(tmp_path / "flag")]) == 0
    by_flag = capsys.readouterr().out
    assert main(["predict", "--config", str(cfg), "--morphemes", "stem0+suf0",
                 "--out-dir", str(tmp_path / "file")]) == 0
    assert capsys.readouterr().out == by_flag
    assert f"checkpoint={ckpt}" in (tmp_path / "file" / "config.txt").read_text()



def test_benchmark_entry_points_resolve():
    # the benchmark drives every workload through cli.main and imports a few
    # more names to check its outputs; a refactor that moves one of them
    # passes the rest of this suite but fails every benchmark iteration.
    # bench/tracer.py names its spans as strings: a missing span is reported
    # there, not failed on, so it is not checked here
    bench = Path(__file__).resolve().parent.parent / "bench"
    if not bench.is_dir():
        pytest.skip("no bench/ directory beside tests/")
    names = []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names += [(a.name, None) for a in node.names if a.name.startswith("vecphon")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vecphon"):
                names += [(node.module, a.name) for a in node.names]
    assert names, "bench/ imports nothing from vecphon"
    for module, name in names:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{module}.{name}"
    assert callable(importlib.import_module("vecphon.cli").main)


def test_readme_names_resolve():
    # README.md names module attributes in backticks (`training.SHARD_MIN`,
    # `vecphon.evaluation.predict`); a rename or deletion that misses one
    # leaves the documentation naming code that is gone
    readme = Path(__file__).resolve().parent.parent / "README.md"
    if not readme.is_file():
        pytest.skip("no README.md beside tests/")
    modules = {m.name for m in pkgutil.iter_modules(importlib.import_module("vecphon").__path__)}
    text = readme.read_text(encoding="utf-8")
    names = {name for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
             if name.split(".")[0] in modules | {"vecphon"}}
    assert names, "README.md names nothing in vecphon"
    for name in sorted(names):
        module, *attrs = name.removeprefix("vecphon.").split(".")
        found = importlib.import_module(f"vecphon.{module}")
        for attr in attrs:
            assert hasattr(found, attr), name
            found = getattr(found, attr)
