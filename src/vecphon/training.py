"""Variational training: single-sample reparameterized objective, Adam,
plateau halving, early stopping.

The objective per word is the negative teacher-forced log-likelihood at
one Gaussian sample of the underlying form, u = mean + eps with
eps ~ N(0, I). The sample is drawn from the model's own conditional
prior, so no KL term appears and the expected objective is a lower-bound
surrogate of the true likelihood. The joint variant has no latent and
trains on the plain likelihood.

Scheduling is driven by the dev loss computed deterministically (dropout
off, eps = 0): halve the learning rate after `patience` consecutive
epochs without improvement, stop once it falls below the floor.

Each word's gradient comes from the model's hand-derived backward pass,
into one flat gradient buffer laid out like the parameters
(``ModelParams.flat``). A batch's first word writes the dense blocks and
the rest add to them; embedding rows are added, and cleared after the
step. A batch is the mean of its words' gradients. Clipping and the Adam
update are in-place numpy operations on the flat buffer, each usable core
updating one contiguous shard of it from 2 * SHARD_MIN trained elements.
"""

from __future__ import annotations

import math
import os
import signal
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import write_atomic
from .errors import ConfigError, NumericError, ShapeError, TrainingError
from .model import (ModelParams, Variant, WordPass, init_params, param_shapes,
                    spell_and_score)
from .seeds import derive_rng
from .vocab import Alphabet, LexiconEntry, MorphemeVocab

GRAD_NORM_CAP = 5.0
IMPROVE_TOL = 1e-6

# elements per slice of an Adam update: the slice's six operands stay in
# cache while a dozen elementwise passes run over them
ADAM_BLOCK = 1 << 15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# trained elements per optimizer shard, at least: one shard against two,
# a step broke even at about 18k elements (README, Training behavior)
SHARD_MIN = 10_000
# shards at most: a step over 2 was measured (on 2 cores), never one over 3 or more,
# each of which adds a pipe round trip per step to a memory-bound update
SHARD_MAX = 2
_forked = False  # follow_parent ran: this process is a forked child


def usable_cores() -> int:
    """Cores for this process: one in a forked child, whose siblings hold the rest."""
    return 1 if _forked or not hasattr(os, "sched_getaffinity") else len(os.sched_getaffinity(0))


def follow_parent(parent: int) -> None:
    """In a fresh fork: the kernel kills this process when ``parent`` ends (PR_SET_PDEATHSIG)."""
    global _forked
    import ctypes
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0 or os.getppid() != parent:  # 1 is PR_SET_PDEATHSIG
        os._exit(1)  # the parent may have ended before prctl
    _forked = True


class Adam:
    """Adam with bias correction and global-norm clipping, updating the
    parameter buffer in place from the gradient buffer, which ``step``
    scales by the clip factor. The learning rate is an attribute so a
    scheduler can change it between steps.

    ``shards`` above 1 cuts the buffers, which must be memory that forked
    children share (a ``shared`` ModelParams), into contiguous shards. This
    process updates the first and a forked helper, with an Adam of its own,
    each other one; the update is elementwise, so the bytes do not depend
    on the shard count. ``close`` ends the helpers.
    """

    def __init__(self, params: np.ndarray, grad: np.ndarray, lr: float = 1e-3, *,
                 max_norm: float = np.inf, shards: int = 1):
        if params.shape != grad.shape or params.ndim != 1:
            raise ShapeError(f"gradient buffer {grad.shape} does not match "
                             f"flat parameter buffer {params.shape}")
        self.params, self.grad, self.lr, self.max_norm = params, grad, lr, max_norm
        self.step_count = 0
        cuts = [params.size * i // shards for i in range(shards + 1)]
        self._helpers = []  # (pid, fd of its step messages, fd of its replies)
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                self._helpers.append(self._fork(params[lo:hi], grad[lo:hi]))
        except OSError:  # no process for a helper: end those already forked
            self.close()
            raise
        n = cuts[1]  # this process's shard: the moments and an update's scratch
        self.m, self.v, self._scratch = np.zeros(n), np.zeros(n), np.empty((2, min(ADAM_BLOCK, n)))

    def _fork(self, params, grad) -> tuple[int, int, int]:
        down, to_helper = os.pipe()
        from_helper, up = os.pipe()
        parent, pid = os.getpid(), os.fork()
        if pid == 0:  # the helper: per message, update the shard and reply a byte
            try:
                follow_parent(parent)
                signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
                for fd in (to_helper, from_helper, *(fd for h in self._helpers for fd in h[1:])):
                    os.close(fd)
                shard = Adam(params, grad)
                while message := os.read(down, 24):  # until the parent closes the pipe
                    shard._update(*struct.unpack("3d", message))
                    os.write(up, b"\0")
            finally:
                os._exit(0)
        os.close(down)
        os.close(up)
        return pid, to_helper, from_helper

    def step(self) -> float:
        """Clip, then update in Kingma & Ba's form (arXiv:1412.6980, sec. 2): p -=
        (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)). Returns the pre-clip norm."""
        self.step_count += 1
        c1, c2 = 1.0 - ADAM_BETA1 ** self.step_count, 1.0 - ADAM_BETA2 ** self.step_count
        norm, scale = clip_global_norm(self.grad, self.max_norm)
        args = (self.lr * np.sqrt(c2) / c1, ADAM_EPS * np.sqrt(c2), scale)
        try:
            for _, to_helper, _ in self._helpers:
                os.write(to_helper, struct.pack("3d", *args))
            self._update(*args)
            if not all(os.read(from_helper, 1) for _, _, from_helper in self._helpers):
                raise OSError  # an empty read: the helper is gone
        except OSError:
            raise TrainingError("an optimizer helper process died") from None
        return norm

    def _update(self, rate: float, eps: float, scale: float) -> None:
        """g *= scale, then p -= rate * m / (sqrt(v) + eps) over this
        process's shard, one ADAM_BLOCK at a time."""
        b1, b2, n = ADAM_BETA1, ADAM_BETA2, self.m.size
        for lo in range(0, n, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, n)
            p, g, m, v = (a[lo:hi] for a in (self.params, self.grad, self.m, self.v))
            s, r = self._scratch[:, :hi - lo]
            if scale != 1.0:
                g *= scale
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.sqrt(v, out=s)
            s += eps
            np.multiply(m, rate, out=r)
            r /= s
            p -= r

    def close(self) -> None:
        """End the helpers, which read the end of their messages, and reap them."""
        for pid, to_helper, from_helper in self._helpers:
            os.close(to_helper)
            os.close(from_helper)
            os.waitpid(pid, 0)
        self._helpers = []


def clip_global_norm(grad: np.ndarray, max_norm: float) -> tuple[float, float]:
    """The L2 norm of the flat gradient buffer, and the factor that scales
    it to a norm of at most ``max_norm`` (1.0 where it is within). A finite
    gradient whose squared norm overflows is measured at unit scale."""
    norm, top = float(np.sqrt(np.dot(grad, grad))), 1.0
    if norm == np.inf and np.isfinite(grad).all():  # only the squares overflowed
        top = float(np.abs(grad).max())  # so measure in units of the largest entry
        norm = float(np.linalg.norm(grad / top))
    return norm * top, max_norm / top / norm if norm * top > max_norm and norm > 0.0 else 1.0


@dataclass
class TrainConfig:
    variant: Variant
    d: int = 200
    dropout: float = 0.2
    lr: float = 1e-3
    min_lr: float = 1e-5
    patience: int = 1
    batch_size: int = 1
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"dim must be >= 1, got {self.d}")
        if not 0.0 < self.min_lr <= self.lr:
            raise ConfigError(f"need 0 < min_lr <= lr, got lr={self.lr}, min_lr={self.min_lr}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_loss: float
    lr: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_loss: float = float("inf")
    stop_reason: str = ""

    def format_lines(self) -> list[str]:
        """Stable text form: one record per line, so identical runs
        serialize bitwise identically."""
        lines = ["# epoch\ttrain_loss\tdev_loss\tlr"]
        for r in self.records:
            lines.append(f"{r.epoch}\t{r.train_loss:.17g}\t{r.dev_loss:.17g}\t{r.lr:.17g}")
        lines.append(f"# best_epoch {self.best_epoch} best_dev_loss {self.best_dev_loss:.17g}"
                     f" stop {self.stop_reason}")
        return lines

    def write(self, path) -> None:
        write_atomic(path, "\n".join(self.format_lines()) + "\n")


class PlateauSchedule:
    """Halve the learning rate after `patience` consecutive non-improving
    dev evaluations; report a stop once the rate falls below the floor.
    Improvement means strictly lower than the best so far by at least
    IMPROVE_TOL."""

    def __init__(self, lr: float, min_lr: float, patience: int):
        self.lr = lr
        self.min_lr = min_lr
        self.patience = patience
        self.best = float("inf")
        self.bad_epochs = 0

    def update(self, dev_loss: float) -> str:
        """Returns one of 'improved', 'waited', 'halved', 'stop'."""
        if dev_loss < self.best - IMPROVE_TOL:
            self.best = dev_loss
            self.bad_epochs = 0
            return "improved"
        self.bad_epochs += 1
        if self.bad_epochs >= self.patience:
            self.lr /= 2.0
            self.bad_epochs = 0
            return "stop" if self.lr < self.min_lr else "halved"
        return "waited"


def elbo_word_loss(variant: Variant, entry: LexiconEntry, params: ModelParams,
                   alphabet: Alphabet, rng: np.random.Generator | None, *,
                   dropout: float = 0.0,
                   drop_rng: np.random.Generator | None = None,
                   grads: ModelParams | None = None,
                   accumulate: bool = True) -> np.float64:
    """Negative log-likelihood at one underlying-form sample.

    With rng None (or for the joint variant, always) the noise is pinned
    to zero, which is the deterministic dev/eval objective. With
    ``grads`` given, the loss's gradient goes into it, as
    ``WordPass.nll_backward`` with ``accumulate`` puts it.
    """
    eps = None if rng is None else (lambda: rng.standard_normal(params.d))
    word = WordPass(variant, entry, params, alphabet, eps=eps,
                    dropout=dropout, drop_rng=drop_rng)
    if grads is not None:
        word.nll_backward(grads, accumulate=accumulate)
    return -word.logprob


def mean_dev_loss(variant: Variant, entries, params: ModelParams,
                  alphabet: Alphabet) -> float:
    """Deterministic mean per-word loss: dropout off, noise pinned to 0;
    the words are scored in lockstep (``spell_and_score``)."""
    logprobs = spell_and_score(variant, [e.morphemes for e in entries],
                               [e.form for e in entries], params, alphabet)[1]
    return -float(logprobs.sum()) / len(entries)


def train(config: TrainConfig, train_entries: list[LexiconEntry],
          dev_entries: list[LexiconEntry], alphabet: Alphabet,
          vocab: MorphemeVocab) -> tuple[ModelParams, TrainLog]:
    """Full training run; returns parameters restored to the best-dev
    epoch (at checkpoint precision) plus the epoch-by-epoch log.

    The logged best_dev_loss is recomputed from the f32-quantized best
    snapshot, so a checkpoint round-trip reproduces it exactly; schedule
    decisions use the full-precision dev losses.
    """
    if not train_entries or not dev_entries:
        raise ConfigError("train and dev sets must both be nonempty")

    init_rng = derive_rng(config.seed, "init")
    order_rng = derive_rng(config.seed, "order")
    drop_rng = derive_rng(config.seed, "dropout")
    noise_rng = derive_rng(config.seed, "noise")

    # pos-indep never reads attn_t, the last field, so Adam would keep it
    trained = (sum(map(math.prod, param_shapes(config.d, len(vocab), alphabet).values()))
               - (config.variant is Variant.POS_INDEPENDENT) * config.d ** 2)
    shards = max(1, min(usable_cores(), SHARD_MAX, trained // SHARD_MIN))
    params = init_params(init_rng, len(vocab), alphabet, config.d, shards > 1)  # shared
    grads = params.like(shared=shards > 1)
    schedule = PlateauSchedule(config.lr, config.min_lr, config.patience)
    log = TrainLog()
    best = params.like()  # private, unlike params: it is what train returns
    n = len(train_entries)

    opt = Adam(params.flat[:trained], grads.flat[:trained], lr=config.lr, max_norm=GRAD_NORM_CAP,
               shards=shards)
    try:
        for epoch in range(1, config.max_epochs + 1):
            lr_in_effect = schedule.lr
            order = order_rng.permutation(n)
            loss_sum = 0.0
            try:
                for start in range(0, n, config.batch_size):
                    batch = [train_entries[i] for i in order[start:start + config.batch_size]]
                    for j, entry in enumerate(batch):
                        loss_sum += float(elbo_word_loss(
                            config.variant, entry, params, alphabet, noise_rng,
                            dropout=config.dropout, drop_rng=drop_rng, grads=grads,
                            accumulate=j > 0))
                    if len(batch) > 1:
                        opt.grad /= len(batch)
                    opt.lr = schedule.lr
                    opt.step()
                    grads.morph_emb[[m for e in batch for m in e.morphemes]] = 0.0
                    grads.char_emb[[alphabet.bos_id, *(c for e in batch for c in e.form)]] = 0.0
                train_loss = loss_sum / n
                dev_loss = mean_dev_loss(config.variant, dev_entries, params, alphabet)
            except NumericError as e:
                raise TrainingError(f"diverged at epoch {epoch}: {e}") from e
            if not (np.isfinite(train_loss) and np.isfinite(dev_loss)):
                raise TrainingError(f"non-finite loss at epoch {epoch}")

            log.records.append(EpochRecord(epoch, train_loss, dev_loss, lr_in_effect))
            verdict = schedule.update(dev_loss)
            if verdict == "improved":  # the snapshot at checkpoint (f32) precision
                np.copyto(best.flat, params.flat.astype(np.float32))
                log.best_epoch = epoch
            if verdict == "stop":
                log.stop_reason = "lr-floor"
                break
        else:
            log.stop_reason = "max-epochs"
    finally:
        opt.close()
    try:  # scored once, at the f32 values a checkpoint holds
        log.best_dev_loss = mean_dev_loss(config.variant, dev_entries, best, alphabet)
    except NumericError as e:
        raise TrainingError(f"f32 snapshot of best epoch {log.best_epoch}: {e}") from e
    return best, log
