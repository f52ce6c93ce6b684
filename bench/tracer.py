"""Per-layer tracing from outside the program.

The tracer replaces each traced function at every name where vecphon's
modules look it up (``vecphon.training.word_logprob`` as well as
``vecphon.model.word_logprob``) and each traced method on its class
(``Tape.backward``). A wrapper records a span: name, start, end, the
span open around it and the word it belongs to. Spans stay in memory
and are written out when the run ends. Self time is a span's duration
minus the durations of its direct children.

Next to the spans the wrappers take exact counts: tape ops per training
word (read from ``Tape.records`` at each ``Tape.backward``), decode
steps per word, dev passes per epoch, the clip rate and checkpoint
sizes. A function that no longer exists is reported absent, so the
tracer keeps working when a refactor removes a layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

# (span name, module, attribute path): the layers, named after the modules
SPANS = (
    ("cli.main", "vecphon.cli", "main"),
    ("data.parse_unimorph_tsv", "vecphon.data", "parse_unimorph_tsv"),
    ("data.parse_weighted_tsv", "vecphon.data", "parse_weighted_tsv"),
    ("data.split_paradigms", "vecphon.data", "split_paradigms"),
    ("data.sample_training_set", "vecphon.data", "sample_training_set"),
    ("data.build_vocab", "vecphon.data", "build_vocab"),
    ("vocab.encode_entry", "vecphon.vocab", "encode_entry"),
    ("training.train", "vecphon.training", "train"),
    ("training.elbo_word_loss", "vecphon.training", "elbo_word_loss"),
    ("training.mean_dev_loss", "vecphon.training", "mean_dev_loss"),
    ("model.word_logprob", "vecphon.model", "word_logprob"),
    ("model.lstm_step", "vecphon.model", "lstm_step"),
    ("model.emission", "vecphon.model", "emission"),
    ("model.attention_log_weights", "vecphon.model", "attention_log_weights"),
    ("model.joint_emission", "vecphon.model", "joint_emission"),
    ("model.greedy_decode", "vecphon.model", "greedy_decode"),
    ("autodiff.backward", "vecphon.autodiff", "Tape.backward"),
    ("autodiff.adam_step", "vecphon.autodiff", "Adam.step"),
    ("autodiff.clip_global_norm", "vecphon.autodiff", "clip_global_norm"),
    ("autodiff.tape_clear", "vecphon.autodiff", "Tape.clear"),
    ("evaluation.evaluate", "vecphon.evaluation", "evaluate"),
    ("evaluation.surprisal", "vecphon.evaluation", "surprisal"),
    ("evaluation.levenshtein", "vecphon.evaluation", "levenshtein"),
    ("evaluation.resample_eval", "vecphon.evaluation", "resample_eval"),
    ("checkpoint.save_checkpoint", "vecphon.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "vecphon.checkpoint", "load_checkpoint"),
)

# spans that open a word when none is open: spans inside carry its id
WORD_SPANS = frozenset({"training.elbo_word_loss", "evaluation.surprisal",
                        "model.word_logprob", "model.greedy_decode"})

# the tape's op tags at the time the benchmark was defined; any other
# tag a later tape records is counted under "other"
OP_TAGS = ("add", "mul", "tanh", "sigmoid", "exp", "tsum", "matmul", "concat",
           "stack_rows", "narrow", "lookup", "pick", "log_softmax",
           "logsumexp_rows", "dropout")


def _bound_argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


class Tracer:
    """Records spans and exact counts while installed; one per traced
    iteration, so iterations can be compared count for count."""

    def __init__(self):
        self.spans: list[list] = []  # [span index, start, end, parent, word]
        self.counts: Counter = Counter()
        self.ops: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._word = -1
        self._next_word = 0
        self._tape_seen: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for index, (name, module_name, path) in enumerate(SPANS):
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, name, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "vecphon" or mod_name.startswith("vecphon."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, index, name, fn):
        after = self._after_hooks().get(name)
        starts_word = name in WORD_SPANS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_word = self._word
            if starts_word and outer_word < 0:
                self._word = self._next_word
                self._next_word += 1
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, self._word]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                self._word = outer_word
            if after is not None:
                after(fn, args, kwargs, result)
            return result

        return wrapper

    # -- exact counts -------------------------------------------------------

    def _after_hooks(self):
        return {
            "autodiff.backward": self._count_ops,
            "autodiff.tape_clear": self._forget_tape,
            "autodiff.clip_global_norm": self._count_clip,
            "model.greedy_decode": self._count_decode,
            "training.train": self._count_epochs,
            "checkpoint.save_checkpoint": self._count_bytes,
            "checkpoint.load_checkpoint": self._count_bytes,
        }

    def _count_ops(self, fn, args, kwargs, result):
        tape = args[0]
        records = getattr(tape, "records", None)
        if records is None:
            return
        seen = self._tape_seen.get(id(tape), 0)
        for entry in records[seen:]:
            op = getattr(entry, "op", None)
            self.ops[op if op in OP_TAGS else "other"] += 1
        self._tape_seen[id(tape)] = len(records)
        self.counts["backward_words"] += 1

    def _forget_tape(self, fn, args, kwargs, result):
        self._tape_seen.pop(id(args[0]), None)

    def _count_clip(self, fn, args, kwargs, result):
        max_norm = _bound_argument(fn, args, kwargs, "max_norm")
        self.counts["clip_steps"] += 1
        if max_norm is not None and result > max_norm:
            self.counts["clip_clipped"] += 1

    def _count_decode(self, fn, args, kwargs, result):
        max_len = _bound_argument(fn, args, kwargs, "max_len")
        if max_len is None:
            return
        # one step per emitted symbol, plus the step that chose EOS
        self.counts["decode_steps"] += len(result) + (len(result) < max_len)
        self.counts["decode_words"] += 1

    def _count_epochs(self, fn, args, kwargs, result):
        records = getattr(result[1], "records", None) if isinstance(result, tuple) else None
        if records is not None:
            self.counts["epochs"] += len(records)

    def _count_bytes(self, fn, args, kwargs, result):
        path = _bound_argument(fn, args, kwargs, "path")
        if path is not None and os.path.exists(path):
            self.counts["checkpoint_files"] += 1
            self.counts["checkpoint_bytes"] += os.path.getsize(path)

    # -- summaries ----------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, self seconds, total seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        for (index, start, end, _, _), inner in zip(self.spans, child):
            row = table[SPANS[index][0]]
            row[0] += 1
            row[1] += end - start - inner
            row[2] += end - start
        return {name: tuple(row) for name, row in table.items()}

    def exact_counts(self) -> dict[str, float]:
        """Counts that repeat exactly for the same inputs, by metric name."""
        c = self.counts
        calls = {name: row[0] for name, row in self.span_table().items()}

        def ratio(num, den):
            return num / den if den else 0.0

        words = c["backward_words"]
        out = {f"autodiff.ops.{op}": ratio(self.ops[op], words) for op in OP_TAGS}
        out["autodiff.ops.other"] = ratio(self.ops["other"], words)
        out["autodiff.ops.total"] = ratio(sum(self.ops.values()), words)
        out["autodiff.clip_rate"] = ratio(c["clip_clipped"], c["clip_steps"])
        out["model.decode_steps_per_word"] = ratio(c["decode_steps"], c["decode_words"])
        out["training.dev_passes_per_epoch"] = ratio(calls["training.mean_dev_loss"],
                                                     c["epochs"])
        out["checkpoint.bytes"] = ratio(c["checkpoint_bytes"], c["checkpoint_files"])
        out["trace.absent_spans"] = len(self.absent)
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        return out

    def write_spans(self, f, iteration: int) -> None:
        """Append the spans as TSV rows: iteration, name, start, end,
        parent row, word id (-1 outside any word)."""
        for index, start, end, parent, word in self.spans:
            f.write(f"{iteration}\t{SPANS[index][0]}\t{start:.9f}\t{end:.9f}"
                    f"\t{parent}\t{word}\n")
