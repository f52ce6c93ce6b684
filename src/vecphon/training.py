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
step. A batch is the mean of its words' gradients. Global-norm clipping
and the Adam update are a handful of in-place numpy operations on the
whole flat buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import write_atomic
from .errors import ConfigError, NumericError, ShapeError, TrainingError
from .model import ModelParams, Variant, WordPass, init_params, spell_and_score
from .seeds import derive_rng
from .vocab import Alphabet, LexiconEntry, MorphemeVocab

GRAD_NORM_CAP = 5.0
IMPROVE_TOL = 1e-6

# elements per slice of an Adam update: the slice's six operands stay in
# cache while a dozen elementwise passes run over them
ADAM_BLOCK = 1 << 15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, updating the parameter buffer in place
    from the gradient buffer.

    The learning rate is an attribute so a scheduler can change it between
    steps. ``step`` leaves the gradient buffer as it found it.
    """

    def __init__(self, params: np.ndarray, grad: np.ndarray, lr: float = 1e-3):
        if params.shape != grad.shape or params.ndim != 1:
            raise ShapeError(f"gradient buffer {grad.shape} does not match "
                             f"flat parameter buffer {params.shape}")
        self.params = params
        self.grad = grad
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(ADAM_BLOCK, params.size)))

    def step(self) -> None:
        """One update in Kingma & Ba's form (arXiv:1412.6980, sec. 2):
        p -= (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2))."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        rate, eps = self.lr * np.sqrt(c2) / c1, ADAM_EPS * np.sqrt(c2)
        n = self.params.size
        for lo in range(0, n, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, n)
            p, g, m, v = (a[lo:hi] for a in (self.params, self.grad, self.m, self.v))
            s, r = self._scratch[:, :hi - lo]
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


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient buffer in place so its L2 norm is at most
    ``max_norm``; returns the norm before clipping. A finite gradient
    whose squared norm overflows is measured at unit scale."""
    norm, top = float(np.sqrt(np.dot(grad, grad))), 1.0
    if norm == np.inf and np.isfinite(grad).all():  # only the squares overflowed
        top = float(np.abs(grad).max())  # so measure in units of the largest entry
        norm = float(np.linalg.norm(grad / top))
    if norm * top > max_norm and norm > 0.0:
        grad *= max_norm / top / norm
    return norm * top


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

    params = init_params(init_rng, len(vocab), alphabet, config.d)
    grads = params.like()
    # pos-indep never reads attn_t, the last field, so Adam would keep it
    trained = params.flat.size - (config.variant is Variant.POS_INDEPENDENT) * params.attn_t.size
    opt = Adam(params.flat[:trained], grads.flat[:trained], lr=config.lr)
    schedule = PlateauSchedule(config.lr, config.min_lr, config.patience)
    log = TrainLog()
    best = params.like()
    n = len(train_entries)

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
                clip_global_norm(opt.grad, GRAD_NORM_CAP)
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
    try:  # scored once, at the f32 values a checkpoint holds
        log.best_dev_loss = mean_dev_loss(config.variant, dev_entries, best, alphabet)
    except NumericError as e:
        raise TrainingError(f"f32 snapshot of best epoch {log.best_epoch}: {e}") from e

    np.copyto(params.flat, best.flat)
    return params, log
