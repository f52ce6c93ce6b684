"""The benchmark's workloads: what each runs through the CLI, and how its
outputs are checked.

Every workload drives ``vecphon.cli.main`` in this process, one command
after another (one client, closed loop). A workload has

  - ``setup``: writes its seeded inputs and, where the timed part needs
    a checkpoint, trains it; the benchmark times this as set-up;
  - ``run``: one timed iteration, the CLI commands whose wall time and
    throughput are the end-to-end metrics;
  - ``verify``: output checks on one iteration, outside the timing.

Each iteration ends by scoring every corpus row with ``evaluate`` and
spelling the same rows with ``predict --gold``, so every workload
reports every end-to-end metric; where a workload's main command
trains, that scoring is the small share of its time.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
import traceback
from io import StringIO
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import corpus

# the program's own decoding cap for 5-symbol words, 2 * longest + 5
# (vecphon.model.default_max_len); it bounds the cost of a briefly
# trained model that misses EOS on a word
MAX_LEN = "15"
# a learning-rate floor no run here can reach (from 1e-3 it takes 20
# halvings, at most one per epoch), so early stopping never cuts a fixed
# epoch count short
MIN_LR = "1e-9"


class Session:
    """One benchmark run's seed and its tally of attempted and failed
    operations: CLI commands and output checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def cli(self, argv) -> float | None:
        """Run one CLI command; its wall seconds, or None if it failed.
        ``main`` is looked up at call time, so a traced run sees the
        tracer's wrapper."""
        main = sys.modules["vecphon.cli"].main
        argv = [str(a) for a in argv]
        out, err = StringIO(), StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception:
            self.failures.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            return None
        return elapsed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name} {detail}".rstrip())
        return ok

    def verify(self, workload, state, sample) -> dict | None:
        """The workload's output checks; a check that raises counts as
        one failed operation."""
        try:
            return workload.verify(self, state, sample)
        except Exception:
            self.check(f"{workload.name} outputs readable", False, traceback.format_exc())
            return None


# ---------------------------------------------------------------------------
# output readers and checks shared by the workloads

def read_trainlog(s: Session, path: Path) -> tuple[int, float]:
    """(epochs run, best dev loss) from a trainlog; checks every loss is finite."""
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [line.split("\t") for line in lines if not line.startswith("#")]
    losses = [float(x) for r in records for x in r[1:3]]
    best = float(lines[-1].split()[4])
    s.check("trainlog losses finite", all(map(math.isfinite, losses + [best])), str(path))
    return len(records), best


def evaluate_and_predict(s: Session, checkpoint: Path, corpus_flags, requests: Path,
                         d: Path) -> dict:
    eval_s = s.cli(["evaluate", "--checkpoint", checkpoint, *corpus_flags,
                    "--max-len", MAX_LEN, "--out-dir", d / "eval"])
    predict_s = s.cli(["predict", "--checkpoint", checkpoint, "--input", requests,
                       "--gold", "--max-len", MAX_LEN, "--out", d / "predict.txt",
                       "--out-dir", d / "predict"])
    return {"eval_s": eval_s, "predict_s": predict_s}


def check_predictions(s: Session, d: Path, n_rows: int, sample: dict) -> float:
    """`predict --gold` must repeat `evaluate`'s prediction and surprisal,
    to the printed 6 decimals, for every row. Returns the mean surprisal."""
    report = json.loads((d / "eval" / "report.json").read_text(encoding="utf-8"))
    lines = (d / "predict.txt").read_text(encoding="utf-8").rstrip("\n").split("\n")
    items = report["items"]
    s.check("evaluate scored every row", report["n_items"] == n_rows == len(items)
            and report["n_unknown"] == 0, f"{report['n_items']} of {n_rows}")
    s.check("predict wrote no UNK-MORPHEME line",
            not any(line.startswith("UNK-MORPHEME") for line in lines))
    expected = [f"{it['predicted']}\t{it['surprisal']:.6f}" for it in items]
    mismatches = sum(a != b for a, b in zip(lines, expected))
    s.check("predict --gold matches report.json", len(lines) == len(expected)
            and mismatches == 0, f"{mismatches} mismatched lines")
    sample["eval_words"] = len(items)
    sample["predict_words"] = len(lines)
    nll = report["mean_surprisal"]
    s.check("mean surprisal finite", math.isfinite(nll))
    return nll


def write_paradigm_inputs(s: Session, d: Path, n_stems: int) -> int:
    """forms.tsv, a paradigm corpus of n_stems x 10 slots, and
    requests.txt, every row as a `predict --gold` request; returns the
    row count."""
    slots, _ = corpus.harmony_language(random.Random(s.seed), n_stems)
    corpus.write_paradigm_tsv(d / "forms.tsv", slots)
    corpus.write_requests(d / "requests.txt",
                          [((stem, suf), form) for stem, suf, form in slots])
    return len(slots)


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads

class FitD200:
    name = "fit-d200"
    why = ("pos-indep d=200 training at the paper's default size: Adam over "
           "~0.5M parameters per word, rank-1 weight-gradient matmuls and the tape")
    n_stems = 20
    epochs = 2

    def setup(self, s: Session, d: Path) -> dict:
        n_rows = write_paradigm_inputs(s, d, self.n_stems)
        # a short training pays the process's first-call costs, which would
        # otherwise slow the first timed iteration by about half a second
        s.cli(["train", "--data", d / "forms.tsv", "--variant", "pos-indep", "--dim", 200,
               "--sample-k", 10, "--epochs", 1, "--min-lr", MIN_LR,
               "--seed", s.seed, "--out-dir", d / "warmup"])
        return {"dir": d, "n_rows": n_rows,
                "artifacts": [d / "forms.tsv", d / "requests.txt",
                              d / "warmup" / "checkpoint.vpck"]}

    def run(self, s: Session, state: dict, d: Path) -> dict:
        tsv = state["dir"] / "forms.tsv"
        train_s = s.cli(["train", "--data", tsv, "--variant", "pos-indep", "--dim", 200,
                         "--epochs", self.epochs, "--min-lr", MIN_LR,
                         "--seed", s.seed, "--out-dir", d / "train"])
        sample = {"dir": d, "train_s": train_s}
        sample.update(evaluate_and_predict(s, d / "train" / "checkpoint.vpck",
                                           ["--data", tsv], state["dir"] / "requests.txt", d))
        return sample

    def verify(self, s: Session, state: dict, sample: dict) -> dict:
        d = sample["dir"]
        epochs, best = read_trainlog(s, d / "train" / "trainlog.tsv")
        n_train = len((d / "train" / "split" / "train.idx").read_text().split())
        sample["train_words"] = n_train * epochs
        recomputed = recompute_dev_loss(state["dir"] / "forms.tsv", d / "train")
        s.check("best_dev_loss reproduced bitwise from the checkpoint", recomputed == best,
                f"{recomputed!r} != {best!r}")
        nll = check_predictions(s, d, state["n_rows"], sample)
        return {"dev_loss": best, "eval_nll": nll}


def recompute_dev_loss(tsv: Path, train_dir: Path) -> float:
    """mean_dev_loss of the saved checkpoint on the run's dev split: the
    README's checkpoint round-trip contract."""
    from vecphon.checkpoint import load_checkpoint
    from vecphon.training import mean_dev_loss
    from vecphon.vocab import encode_entry

    rows = [line.split("\t") for line in tsv.read_text(encoding="utf-8").splitlines()]
    dev = [int(i) for i in (train_dir / "split" / "dev.idx").read_text().split()]
    params, variant, alphabet, vocab = load_checkpoint(train_dir / "checkpoint.vpck")
    entries = [encode_entry(alphabet, vocab, (rows[i][0], rows[i][2]), rows[i][1])
               for i in dev]
    return mean_dev_loss(variant, entries, params, alphabet)


class CurveD32:
    name = "curve-d32"
    why = ("joint d=32 learning curve (resample): many short trainings where "
           "per-op and tape overhead, init and token-weighted sampling outweigh arithmetic")
    n_stems = 20
    sizes = (10, 20, 40)
    resamples = 2
    epochs = 2
    setup_epochs = 3

    def setup(self, s: Session, d: Path) -> dict:
        rng = random.Random(s.seed)
        slots, bare = corpus.harmony_language(rng, self.n_stems)
        rows = corpus.weighted_rows(slots, bare, rng)
        corpus.write_weighted_tsv(d / "forms.tsv", rows)
        corpus.write_requests(
            d / "requests.txt",
            [((stem,) if affix == corpus.NO_AFFIX else (stem, affix), form)
             for form, stem, affix, _ in rows])
        # the checkpoint that each iteration's evaluate and predict load;
        # at lr 3e-3 three epochs spell nearly every word to its length,
        # so decoding does the same work whatever the seed
        s.cli(["train", "--weighted-data", d / "forms.tsv", "--variant", "joint",
               "--dim", 32, "--epochs", self.setup_epochs, "--lr", "3e-3",
               "--min-lr", MIN_LR, "--seed", s.seed, "--out-dir", d / "train"])
        _, dev_loss = read_trainlog(s, d / "train" / "trainlog.tsv")
        return {"dir": d, "n_rows": len(rows), "dev_loss": dev_loss,
                "artifacts": [d / "forms.tsv", d / "requests.txt",
                              d / "train" / "checkpoint.vpck", d / "train" / "trainlog.tsv"]}

    def run(self, s: Session, state: dict, d: Path) -> dict:
        tsv = state["dir"] / "forms.tsv"
        train_s = s.cli(["resample", "--weighted-data", tsv, "--variants", "joint",
                         "--dim", 32, "--sizes", ",".join(map(str, self.sizes)),
                         "--resamples", self.resamples, "--epochs", self.epochs,
                         "--min-lr", MIN_LR, "--max-len", MAX_LEN,
                         "--seed", s.seed, "--out-dir", d / "curve"])
        sample = {"dir": d, "train_s": train_s}
        sample.update(evaluate_and_predict(s, state["dir"] / "train" / "checkpoint.vpck",
                                           ["--weighted-data", tsv],
                                           state["dir"] / "requests.txt", d))
        return sample

    def verify(self, s: Session, state: dict, sample: dict) -> dict:
        d = sample["dir"]
        lines = (d / "curve" / "curve.tsv").read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        s.check("curve.tsv has one row per size",
                [int(r[0]) for r in rows] == list(self.sizes)
                and all(r[1] == "joint" for r in rows), str(lines))
        values = [float(x) for r in rows for x in r[2:]]
        s.check("curve.tsv values finite", all(map(math.isfinite, values)))
        # no early stop: every training ran the fixed epoch count
        sample["train_words"] = sum(self.sizes) * self.resamples * self.epochs
        checkpoint_nll = check_predictions(s, d, state["n_rows"], sample)
        curve_nll = sum(float(r[6]) for r in rows) / len(rows)
        return {"dev_loss": state["dev_loss"], "eval_nll": curve_nll,
                "checkpoint_nll": checkpoint_nll}


class ScoreD200:
    name = "score-d200"
    why = ("forward-only pos-dep d=200 evaluate and predict over hundreds of words: "
           "decode and attention at every character, no tape, backward or Adam")
    n_stems = 30
    sample_k = 80
    setup_epochs = 3

    def setup(self, s: Session, d: Path) -> dict:
        n_rows = write_paradigm_inputs(s, d, self.n_stems)
        # a briefly trained model stops at EOS as a real one does; an
        # untrained one would run to the length cap on every word
        train_s = s.cli(["train", "--data", d / "forms.tsv", "--variant", "pos-dep",
                         "--dim", 200, "--sample-k", self.sample_k,
                         "--epochs", self.setup_epochs, "--min-lr", MIN_LR,
                         "--seed", s.seed, "--out-dir", d / "train"])
        epochs, dev_loss = read_trainlog(s, d / "train" / "trainlog.tsv")
        return {"dir": d, "n_rows": n_rows, "train_s": train_s,
                "train_words": self.sample_k * epochs, "dev_loss": dev_loss,
                "artifacts": [d / "forms.tsv", d / "requests.txt",
                              d / "train" / "checkpoint.vpck", d / "train" / "trainlog.tsv"]}

    def run(self, s: Session, state: dict, d: Path) -> dict:
        sample = {"dir": d}
        sample.update(evaluate_and_predict(s, state["dir"] / "train" / "checkpoint.vpck",
                                           ["--data", state["dir"] / "forms.tsv"],
                                           state["dir"] / "requests.txt", d))
        return sample

    def verify(self, s: Session, state: dict, sample: dict) -> dict:
        nll = check_predictions(s, sample["dir"], state["n_rows"], sample)
        return {"dev_loss": state["dev_loss"], "eval_nll": nll}


WORKLOADS = {w.name: w for w in (FitD200(), CurveD32(), ScoreD200())}
