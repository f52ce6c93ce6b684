#!/usr/bin/env python3
"""vecphon benchmark: end-to-end metrics of the public CLI, and a traced
run for per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload fit-d200 --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for the commands and checks):

  fit-d200    `train` pos-indep d=200, 2 epochs, on a 20x10 harmony
              paradigm (160/20/20 split): Adam, backward and the tape at
              the paper's default size.
  curve-d32   `resample` joint d=32 over a weighted corpus with Zipf
              counts and bare stems: many short trainings, where per-op
              overhead, init and token-weighted sampling dominate.
  score-d200  `evaluate` and `predict --gold` of a briefly trained
              pos-dep d=200 checkpoint over 300 words: the forward-only
              path, which a training-only change must leave unchanged.

Every iteration of every workload ends with `evaluate` and `predict
--gold` over every corpus row, so each workload reports each metric.

One process drives ``vecphon.cli.main`` as one client in a closed loop:
an iteration runs its commands one after another and the next iteration
starts when the last ends, until --seconds have passed (at least one
iteration; two traced ones with --trace 1). BLAS is pinned to one
thread for every workload. Inputs come from --seed only; the program
sees only the generated files.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones
(medians over iterations; set-up is repeated and its median taken). With
--trace 1 one untraced iteration is followed by traced ones, and the
metrics are the per-layer spans and exact counts, the tracing overhead
(traced minus untraced wall time) and the quality values. The line
before it records the environment, the seed and any failures. Work files
go to .bench_run/<workload>/ under the checkout, spans to spans.tsv there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# fixed for all workloads, at most nproc; must be set before numpy loads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracer  # noqa: E402
from workloads import WORKLOADS, Session, file_digest  # noqa: E402

SETUP_REPEATS = 3

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("train_words_per_s", "words/s", "higher", 0.25),
    ("score_words_per_s", "words/s", "higher", 0.25),
    ("predict_words_per_s", "words/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, all better lower."""
    out = []
    for name, _, _ in tracer.SPANS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s"),
                (f"{name}.total_s", "s")]
    out += [(f"autodiff.ops.{op}", "ops/word") for op in tracer.OP_TAGS + ("other", "total")]
    out += [("autodiff.clip_rate", "ratio"), ("model.decode_steps_per_word", "steps/word"),
            ("training.dev_passes_per_epoch", "passes/epoch"), ("checkpoint.bytes", "bytes"),
            ("trace.absent_spans", "count"), ("trace.overhead_s", "s"),
            ("quality.dev_loss", "nats/word"), ("quality.eval_nll", "nats/symbol")]
    return out


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def check_spec(root: Path) -> None:
    """BENCHMARK.json must list exactly the metrics this script reports."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    spec = json.loads(path.read_text(encoding="utf-8"))
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
            != list(END_TO_END):
        fail("BENCHMARK.json end_to_end differs from bench/run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != per_layer_metrics():
        fail("BENCHMARK.json per_layer differs from bench/run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from bench/workloads.py")


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def rate(words, seconds):
    return words / seconds if words and seconds else None


def end_to_end(import_s, setups, samples) -> dict:
    trained = [s for s in samples if "train_s" in s] or setups
    return {
        "setup_s": import_s + statistics.median(s["setup_s"] for s in setups),
        "wall_s": median_of(s["wall_s"] for s in samples),
        "train_words_per_s": median_of(rate(s.get("train_words"), s.get("train_s"))
                                       for s in trained),
        "score_words_per_s": median_of(rate(s.get("eval_words"), s.get("eval_s"))
                                       for s in samples),
        "predict_words_per_s": median_of(rate(s.get("predict_words"), s.get("predict_s"))
                                         for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def iterate(session, workload, state, work: Path, index: int, tr=None) -> dict:
    """One timed iteration, then its checks; the previous iteration's
    files are removed to keep the work directory small."""
    d = work / f"iter{index}"
    shutil.rmtree(work / f"iter{index - 1}", ignore_errors=True)
    d.mkdir()
    if tr is not None:
        tr.install()
    try:
        sample = workload.run(session, state, d)
    finally:
        if tr is not None:
            tr.uninstall()
    times = [sample.get(k) for k in ("train_s", "eval_s", "predict_s") if k in sample]
    sample["wall_s"] = sum(times) if None not in times else None
    sample["quality"] = session.verify(workload, state, sample)
    return sample


def per_layer(untraced, traced) -> dict:
    tables = [tr.span_table() for _, tr in traced]
    out = {}
    for name, _, _ in tracer.SPANS:
        out[f"{name}.self_s"] = statistics.median(t[name][1] for t in tables)
        out[f"{name}.total_s"] = statistics.median(t[name][2] for t in tables)
    out.update(traced[0][1].exact_counts())
    walls = [s["wall_s"] for s, _ in traced]
    if None not in walls and untraced["wall_s"] is not None:
        out["trace.overhead_s"] = statistics.median(walls) - untraced["wall_s"]
    quality = traced[0][0]["quality"] or {}
    for key in ("dev_loss", "eval_nll"):
        if key in quality:
            out[f"quality.{key}"] = quality[key]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "vecphon" / "cli.py").is_file():
        fail(f"no vecphon sources under {root / 'src'}; run from a checkout")
    check_spec(root)
    work = root / ".bench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import vecphon.cli  # noqa: F401
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]
    session = Session(args.seed)
    setups = []
    for r in range(SETUP_REPEATS):
        d = work / f"setup{r}"
        d.mkdir()
        t0 = time.perf_counter()
        state = workload.setup(session, d)
        state["setup_s"] = time.perf_counter() - t0
        setups.append(state)
    digests = [file_digest(s["artifacts"]) for s in setups]
    session.check("set-up repeats byte for byte", len(set(digests)) == 1)
    state = setups[0]

    loop_start = time.perf_counter()
    samples, traced = [], []
    if args.trace:
        untraced = iterate(session, workload, state, work, 0)
        while len(traced) < 2 or time.perf_counter() - loop_start < args.seconds:
            tr = tracer.Tracer()
            traced.append((iterate(session, workload, state, work, len(traced) + 1, tr), tr))
        counts = [tr.exact_counts() for _, tr in traced]
        session.check("traced iterations give identical exact counts",
                      all(c == counts[0] for c in counts))
        samples = [untraced] + [s for s, _ in traced]
    else:
        while not samples or time.perf_counter() - loop_start < args.seconds:
            samples.append(iterate(session, workload, state, work, len(samples)))
    qualities = [s["quality"] for s in samples]
    session.check("quality values repeat exactly across iterations",
                  None not in qualities and all(q == qualities[0] for q in qualities))

    if args.trace:
        metrics = per_layer(untraced, traced)
        names = per_layer_metrics()
        with open(work / "spans.tsv", "w", encoding="utf-8") as f:
            f.write("iteration\tname\tstart\tend\tparent\tword\n")
            for i, (_, tr) in enumerate(traced, start=1):
                tr.write_spans(f, i)
    else:
        metrics = end_to_end(import_s, setups, samples)
        names = [(name, unit) for name, unit, _, _ in END_TO_END]
    missing = [name for name, _ in names if metrics.get(name) is None]
    session.check("every metric measured", not missing, ", ".join(missing))

    info = {**environment(args), "iterations": len(samples),
            "absent_spans": traced[0][1].absent if traced else [],
            "quality": qualities[0]}
    timings = [{k: v for k, v in s.items() if k.endswith(("_s", "_words"))} for s in samples]
    (work / "result.json").write_text(json.dumps(
        {**info, "failures": session.failures, "metrics": metrics,
         "iteration_timings": timings}, indent=1))
    for failure in session.failures:
        print(failure, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names if name not in missing},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
