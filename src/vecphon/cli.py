"""Command-line entry points.

Subcommands: train, predict, evaluate, export-embeddings, resample.
Options are declared once, in build_parser. Configuration is layered:
built-in defaults, then a flat key=value config file (--config), then
command-line flags. Every run echoes all its options into
out-dir/config.txt, which replays the run when given as --config.

Exit status: 0 success, 1 runtime failure, 2 usage or configuration
problem.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (SplitSpec, build_vocab, parse_unimorph_tsv, parse_weighted_tsv,
                   read_lines, read_split_manifest, sample_training_set,
                   split_paradigms, write_atomic, write_split_manifest)
from .errors import CompatibilityError, ConfigError, DataError, TrainingError, VecphonError
from .evaluation import EvalReport, cosine, evaluate, pca2, predict, resample_eval
from .model import Variant
from .seeds import derive_rng, derive_seed
from .training import TrainConfig, blas_threads, follow_parent, train, usable_cores
from .vocab import encode_entry


def options(parser) -> dict:
    """A subcommand's settable options, keyed by config-file key (the
    option's dest with hyphens); --help and --config are not settings."""
    return {a.dest.replace("_", "-"): a for a in parser._actions
            if a.dest not in ("help", "config")}


def config_value(action, raw: str):
    """A config-file value parsed as its option would parse it."""
    if action.nargs == 0:  # store_true / store_false: the value itself
        if raw.lower() not in ("true", "false"):
            raise ValueError(raw)
        return raw.lower() == "true"
    value = (action.type or str)(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(raw)
    return value


def apply_config_file(path, subcommands) -> None:
    """Each key=value becomes a default of every subcommand that has the
    option, so flags still override it. An empty value (an unset option)
    sets nothing, and a command= line naming a subcommand is skipped, so
    a config.txt echo reads back as the run that wrote it."""
    try:
        lines = read_lines(path)
    except (DataError, OSError) as e:
        raise ConfigError(str(e)) from None
    tables = [(p, options(p)) for p in subcommands.values()]
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "command" and raw in subcommands:
            continue
        targets = [(p, opts[key]) for p, opts in tables if key in opts]
        if not targets:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if not raw:
            continue
        if "\0" in raw:
            raise ConfigError(f"{path}:{lineno}: NUL byte in the value for {key}")
        for sub_parser, action in targets:
            try:
                sub_parser.set_defaults(**{action.dest: config_value(action, raw)})
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key}") from None


def echo_config(ns, parser) -> None:
    """One key=value line per option of the subcommand that ran; an
    unset option reads ``key=``."""
    lines = [f"command={ns.command}"]
    for key, action in sorted(options(parser).items()):
        value = getattr(ns, action.dest)
        lines.append(f"{key}={'' if value is None else value}")
    write_atomic(os.path.join(ns.out_dir, "config.txt"), "\n".join(lines) + "\n")


def parse_list(text, item, what, n=None) -> list:
    """The values of a comma-separated option, each stripped and read by
    ``item``. A count other than ``n``, a blank value or a ValueError from
    ``item`` is a ConfigError; other errors of ``item`` pass through."""
    parts = [p.strip() for p in text.split(",")]
    if n is not None and len(parts) != n:
        raise ConfigError(f"{what} need {n} comma-separated values, got {text!r}")
    if "" in parts:
        raise ConfigError(f"bad {what} {text!r}: blank value")
    try:
        return [item(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"bad {what} {text!r}: {e}") from None


# ---------------------------------------------------------------------------
# corpus plumbing shared by train / evaluate / resample

def load_corpus(ns):
    """The corpus rows of --data or --weighted-data."""
    if ns.data and ns.weighted_data:
        raise ConfigError("give either --data or --weighted-data, not both")
    if ns.data:
        return parse_unimorph_tsv(ns.data)
    if ns.weighted_data:
        return parse_weighted_tsv(ns.weighted_data)
    raise ConfigError("a corpus is required: --data or --weighted-data")


def resolve_split(ns, rows):
    if ns.split_manifest:
        return read_split_manifest(ns.split_manifest, len(rows))
    fracs = parse_list(ns.split_fracs, float, "split fractions", 3)
    split_seed = derive_seed(ns.seed, "split")
    spec = SplitSpec(train_frac=fracs[0], dev_frac=fracs[1], test_frac=fracs[2],
                     seed=split_seed, coverage=ns.coverage)
    train_idx, dev_idx, test_idx = split_paradigms([r.morphemes for r in rows], spec)
    return train_idx, dev_idx, test_idx, split_seed


def encode_rows(rows, alphabet, vocab):
    return [encode_entry(alphabet, vocab, r.morphemes, r.form) for r in rows]


def train_config(ns, variant, seed) -> TrainConfig:
    """The training settings of a train or resample run."""
    return TrainConfig(
        variant=variant, d=ns.dim, dropout=ns.dropout, lr=ns.lr, min_lr=ns.min_lr,
        patience=ns.patience, batch_size=ns.batch_size, max_epochs=ns.epochs, seed=seed)


def check_symbols(forms, alphabet):
    missing = sorted({c for form in forms for c in form} - set(alphabet.symbols))
    if missing:
        raise CompatibilityError(
            "symbols absent from the checkpoint alphabet: " + ", ".join(repr(c) for c in missing))


# ---------------------------------------------------------------------------
# commands

def cmd_train(ns) -> None:
    rows = load_corpus(ns)
    train_idx, dev_idx, test_idx, split_seed = resolve_split(ns, rows)
    alphabet, vocab = build_vocab([r.form for r in rows], [r.morphemes for r in rows])

    train_rows = [rows[i] for i in train_idx]
    if ns.sample_k is not None:
        train_rows = sample_training_set(train_rows, ns.sample_k,
                                         derive_rng(ns.seed, "sample"))
    train_entries = encode_rows(train_rows, alphabet, vocab)
    dev_entries = encode_rows([rows[i] for i in dev_idx], alphabet, vocab)

    config = train_config(ns, Variant(ns.variant), ns.seed)
    params, log = train(config, train_entries, dev_entries, alphabet, vocab)

    save_checkpoint(os.path.join(ns.out_dir, "checkpoint.vpck"),
                    params, config.variant, alphabet, vocab)
    log.write(os.path.join(ns.out_dir, "trainlog.tsv"))
    write_split_manifest(os.path.join(ns.out_dir, "split"),
                         train_idx, dev_idx, test_idx, split_seed)
    print(f"trained {ns.variant} d={ns.dim} on {len(train_entries)} words; "
          f"best dev loss {log.best_dev_loss:.6f} at epoch {log.best_epoch} "
          f"({log.stop_reason})")
    print(f"checkpoint: {os.path.join(ns.out_dir, 'checkpoint.vpck')}")


def read_prediction_requests(ns):
    """Each request: (morpheme identifiers, gold form or None)."""
    requests = []
    if ns.morphemes:
        requests.append((tuple(ns.morphemes.split("+")), None))
    for line in read_lines(ns.input) if ns.input else ():
        if not line.strip():
            continue
        cols = line.split("\t")
        gold = None
        if ns.gold:
            if len(cols) < 2:
                raise DataError(f"--gold needs a final gold column: {line!r}")
            gold = cols[-1]
            cols = cols[:-1]
        morphemes = tuple(cols) if len(cols) > 1 else tuple(cols[0].split("+"))
        requests.append((morphemes, gold))
    if not requests:
        raise ConfigError("nothing to predict: give --morphemes and/or --input")
    return requests


MAX_LEN_LIMIT = 1000  # symbols; a decoded word is never longer


def check_max_len(ns) -> None:
    if not 1 <= ns.max_len <= MAX_LEN_LIMIT:
        raise ConfigError(f"max-len must be in [1, {MAX_LEN_LIMIT}], got {ns.max_len}")


def load_model(ns):
    if not ns.checkpoint:
        raise ConfigError("a checkpoint is required: --checkpoint")
    return load_checkpoint(ns.checkpoint)


def cmd_predict(ns) -> None:
    check_max_len(ns)
    params, variant, alphabet, vocab = load_model(ns)
    records = predict(variant, params, alphabet, vocab, read_prediction_requests(ns),
                      ns.max_len)
    out_lines = []
    for r in records:
        if r.unknown:
            out_lines.append("UNK-MORPHEME\t" + "+".join(m for m in r.morphemes if m not in vocab))
        elif r.gold is None:
            out_lines.append(r.predicted)
        elif r.surprisal is None:
            out_lines.append(f"{r.predicted}\tGOLD-NOT-ENCODABLE")
        else:
            out_lines.append(f"{r.predicted}\t{r.surprisal:.6f}")
    text = "\n".join(out_lines)
    if ns.out:
        write_atomic(ns.out, text + "\n")
    else:
        print(text)


def report_table(name, variant, rep: EvalReport) -> str:
    header = f"{'run':<16} {'variant':<10} {'ACC':>7} {'MLD':>7} {'NLL':>7} {'unk':>4}"
    row = (f"{name:<16} {variant.value:<10} {rep.accuracy:>7.1f} "
           f"{rep.mean_levenshtein:>7.3f} {rep.mean_surprisal:>7.3f} {rep.n_unknown:>4}")
    return header + "\n" + row


def cmd_evaluate(ns) -> None:
    check_max_len(ns)
    params, variant, alphabet, vocab = load_model(ns)
    rows = load_corpus(ns)
    if ns.split_manifest:
        rows = [rows[i] for i in read_split_manifest(ns.split_manifest, len(rows))[2]]
    check_symbols([r.form for r in rows], alphabet)
    items = [(r.morphemes, r.form) for r in rows]
    rep = evaluate(variant, params, alphabet, vocab, items, ns.max_len)

    name = ns.run_name or os.path.splitext(os.path.basename(ns.data or ns.weighted_data))[0]
    table = report_table(name, variant, rep)
    print(table)
    write_atomic(os.path.join(ns.out_dir, "report.txt"), table + "\n")
    payload = {"run": name, "variant": variant.value,
               "conventions": "surprisal counts EOS in both the sum and the length",
               **vars(rep), "items": [vars(r) for r in rep.items]}
    if np.isnan(rep.mean_surprisal):  # no scorable item; JSON has no NaN
        payload["mean_surprisal"] = None
    write_atomic(os.path.join(ns.out_dir, "report.json"),
                 json.dumps(payload, ensure_ascii=False, indent=1))


def cmd_export_embeddings(ns) -> None:
    params, variant, alphabet, vocab = load_model(ns)
    if ns.similarity is not None:
        a, b = params.morph_emb[parse_list(ns.similarity, vocab.index, "--similarity identifiers", 2)]
        print(f"{cosine(a, b):.6f}")
        return
    table = pca2(params.morph_emb) if ns.projection == "pca2" else params.morph_emb
    out_path = ns.out or os.path.join(ns.out_dir, "embeddings.tsv")
    write_atomic(out_path, "".join(ident + "".join(f"\t{v:.9g}" for v in row) + "\n"
                                   for ident, row in zip(vocab.identifiers, table)))
    print(f"wrote {len(table)} rows to {out_path}")


def _run_cell(*args):  # in a forked worker, which inherits fork_pool's _run_cell.cell
    return _run_cell.cell(*args)  # under main's np.errstate, which the fork inherits


@contextlib.contextmanager
def fork_pool(cell, cells: int):
    """(runner, map) for ``cells`` independent calls of ``cell``, where
    ``map(runner, ...)`` yields their results in order. The calls run in
    usable_cores() forked workers, at most one per cell, or in this process
    when that is one. Workers inherit ``cell``, its data and one BLAS thread,
    so only the arguments and the result are pickled; the pool forks them
    all before it starts its own threads. Leaving joins every worker."""
    workers = max(1, min(usable_cores(), cells))
    if workers == 1:
        yield cell, map
        return
    import multiprocessing  # here, so that the other commands do not load it
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    _run_cell.cell = cell
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=follow_parent, initargs=(os.getpid(),)) as executor:
        try:
            yield _run_cell, executor.map
        except BrokenProcessPool:
            raise TrainingError("a resample worker process died") from None
        finally:  # the workers hold their copies; drop this process's reference to the data
            _run_cell.cell = None


def cmd_resample(ns) -> None:
    check_max_len(ns)
    if not ns.weighted_data:
        raise ConfigError("resample needs --weighted-data")
    rows = parse_weighted_tsv(ns.weighted_data)
    pool_idx, dev_idx, test_idx, _ = resolve_split(ns, rows)
    sizes = parse_list(ns.sizes, int, "sizes list")
    for k in sizes:
        if not 1 <= k <= len(pool_idx):
            raise ConfigError(f"size {k} is outside 1..{len(pool_idx)}, the sampling pool")
    variants = parse_list(ns.variants, Variant, "variants list")

    alphabet, vocab = build_vocab([r.form for r in rows], [r.morphemes for r in rows])
    pool = [rows[i] for i in pool_idx]
    dev_entries = encode_rows([rows[i] for i in dev_idx], alphabet, vocab)
    test_items = [(rows[i].morphemes, rows[i].form) for i in test_idx]

    def cell(variant, k, sub_seed):
        chosen = sample_training_set(pool, k, np.random.default_rng(sub_seed))
        params, _ = train(train_config(ns, variant, sub_seed),
                          encode_rows(chosen, alphabet, vocab), dev_entries,
                          alphabet, vocab)
        return evaluate(variant, params, alphabet, vocab, test_items, ns.max_len)

    with fork_pool(cell, len(variants) * len(sizes) * ns.resamples) as (run, map_):
        # a failed cell cancels every pending cell
        points = resample_eval(run, variants, sizes, ns.resamples, ns.seed, map=map_)
    lines = ["k\tvariant\tacc_mean\tacc_sd\tmld_mean\tmld_sd\tnll_mean\tnll_sd"]
    for p in points:
        lines.append(f"{p.k}\t{p.variant.value}\t{p.acc_mean:.3f}\t{p.acc_sd:.3f}"
                     f"\t{p.mld_mean:.4f}\t{p.mld_sd:.4f}"
                     f"\t{p.nll_mean:.4f}\t{p.nll_sd:.4f}")
    text = "\n".join(lines)
    print(text)
    write_atomic(os.path.join(ns.out_dir, "curve.tsv"), text + "\n")


# ---------------------------------------------------------------------------
# parser assembly

class ArgumentParser(argparse.ArgumentParser):
    """Usage errors end in one ``error:`` line, like every other failure.
    Options must be spelled out: with abbreviations, resample's --variants
    would also answer to --variant."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "error: usage: " + "\\n".join(f"{self.prog}: {message}".splitlines()) + "\n")


def add_corpus(p, paradigm=True):
    if paradigm:
        p.add_argument("--data", help="paradigm TSV: lemma<TAB>form<TAB>features")
    p.add_argument("--weighted-data",
                   help="weighted TSV: form<TAB>stem<TAB>affix-or-∅<TAB>count")
    p.add_argument("--split-manifest", help="reuse an existing split directory")


def add_training(p):
    """Options of the runs that split a corpus and train (train, resample)."""
    p.add_argument("--split-fracs", default="0.8,0.1,0.1")
    p.add_argument("--no-coverage", dest="coverage", action="store_false",
                   help="allow dev/test morphemes unseen in train")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=200, help="embedding/hidden size d")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--min-lr", type=float, default=1e-5)
    p.add_argument("--patience", type=int, default=1)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--epochs", type=int, default=100)


def build_parser():
    """The one declaration of every option: config-file keys and the
    config.txt echo are derived from these subparsers."""
    parser = ArgumentParser(
        prog="vecphon",
        description="Morpheme-vector word spelling: train and query "
                    "character-level decoders over continuous underlying forms.")
    parser.add_argument("--version", action="version", version=f"vecphon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subcommands = {}

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--out-dir", default="vecphon-out")
        p.set_defaults(func=func)
        subcommands[name] = p
        return p

    p = command("train", cmd_train, "fit a model and write a checkpoint")
    add_corpus(p)
    add_training(p)
    p.add_argument("--variant", default="pos-indep", choices=[v.value for v in Variant])
    p.add_argument("--sample-k", type=int, default=None,
                   help="subsample this many training words by token count")

    p = command("predict", cmd_predict, "spell words for morpheme sequences")
    p.add_argument("--checkpoint")
    p.add_argument("--morphemes", help="single request, e.g. lemma+V;PST")
    p.add_argument("--input", help="batch file: morphemes per line, tab- or +-separated")
    p.add_argument("--gold", action="store_true",
                   help="last column of --input is a gold form; emit its surprisal")
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--out", help="write predictions here instead of stdout")

    p = command("evaluate", cmd_evaluate, "score a checkpoint on held-out forms")
    add_corpus(p)
    p.add_argument("--checkpoint")
    p.add_argument("--max-len", type=int, default=40)
    p.add_argument("--run-name", default=None)

    p = command("export-embeddings", cmd_export_embeddings, "dump morpheme vectors")
    p.add_argument("--checkpoint")
    p.add_argument("--projection", default="none", choices=("none", "pca2"))
    p.add_argument("--out", help="output file (default: out-dir/embeddings.tsv)")
    p.add_argument("--similarity", metavar="A,B",
                   help="print the cosine of two morphemes' embeddings and exit")

    p = command("resample", cmd_resample, "learning curves over training sizes")
    add_corpus(p, paradigm=False)
    add_training(p)
    p.add_argument("--sizes", default="200,400,600,800",
                   help="comma-separated training sizes k")
    p.add_argument("--resamples", type=int, default=10)
    p.add_argument("--variants", default="pos-indep",
                   help="comma-separated variant tags to sweep")
    p.add_argument("--max-len", type=int, default=40)

    return parser, subcommands


def main(argv=None) -> int:
    """Parses, creates --out-dir, runs the subcommand and, on success,
    echoes its options to out-dir/config.txt."""
    blas_threads(1)  # so a run writes the same bytes on any host, and forks onto every core
    parser, subcommands = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        bad = [arg for arg in argv if re.search("[\0\ud800-\udfff]", arg)]
        if bad:  # no path holds a NUL, and config.txt echoes every value as UTF-8
            raise ConfigError(f"argument {bad[0]!r} holds a NUL byte or bytes that are not UTF-8")
        ns = parser.parse_args(argv)
        if ns.config:
            apply_config_file(ns.config, subcommands)
            ns = parser.parse_args(argv)
        for key, action in options(subcommands[ns.command]).items():
            value = getattr(ns, action.dest)
            if isinstance(value, str) and ("\n" in value or value != value.strip()):
                raise ConfigError(f"{key} value {value!r} has a line break or blank ends, "
                                  "which config.txt could not replay")
        os.makedirs(ns.out_dir, exist_ok=True)
        with np.errstate(all="ignore"):  # non-finite results are checked explicitly
            ns.func(ns)
        echo_config(ns, subcommands[ns.command])
        return 0
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    except ConfigError as e:
        code, text = 2, f"config: {e}"
    except (VecphonError, OSError) as e:
        code, text = 1, f"{type(e).__name__}: {e}"
    except MemoryError as e:
        code, text = 1, f"MemoryError: {str(e) or 'out of memory'}"
    # one line, even where a path in the message holds a line break
    print("error: " + "\\n".join(text.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
