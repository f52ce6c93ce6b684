"""Character-level spell-out model over continuous underlying forms.

A word is a sequence of abstract morphemes. Each morpheme owns one
embedding vector in R^d, and a single-layer LSTM spells the surface form
one character at a time. The variants differ only in how morpheme
vectors enter the per-character output distribution:

  - position-independent: one underlying form per word, the arithmetic
    mean of the morpheme vectors (plus Gaussian noise when sampling);
  - position-dependent: an attention-weighted mean recomputed from the
    decoder state at every step;
  - joint: no underlying-form vector at all; the output distribution is
    an attention-weighted mixture, in probability space, of per-morpheme
    readouts.

The decoder starts from a zero state and first reads BOS, so the
morpheme pathway is the only source of morphological information. EOS is
part of the output space and is scored at the final position of every
word.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NumericError
from .vocab import Alphabet, LexiconEntry


class Variant(enum.Enum):
    POS_INDEPENDENT = "pos-indep"
    POS_DEPENDENT = "pos-dep"
    JOINT = "joint"

    @classmethod
    def from_tag(cls, tag: str) -> "Variant":
        for v in cls:
            if v.value == tag:
                return v
        raise ValueError(f"unknown variant tag {tag!r}; choose from "
                         + ", ".join(v.value for v in cls))


@dataclass
class ModelParams:
    """All trainable tensors. Shapes for hidden size d, |M| morphemes and
    n surface symbols:

      morph_emb (|M|, d)    char_emb (n+3, d)
      lstm_wx (4d, d)       lstm_wh (4d, d)      lstm_b (4d,)
      readout_w (2d, 2d)    readout_v (n+1, 2d)  attn_t (d, d)

    LSTM gate blocks are stacked input/forget/output/candidate.
    """

    d: int
    morph_emb: Tensor
    char_emb: Tensor
    lstm_wx: Tensor
    lstm_wh: Tensor
    lstm_b: Tensor
    readout_w: Tensor
    readout_v: Tensor
    attn_t: Tensor

    FIELD_NAMES = ("morph_emb", "char_emb", "lstm_wx", "lstm_wh", "lstm_b",
                   "readout_w", "readout_v", "attn_t")

    def named_tensors(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in self.FIELD_NAMES}

    def tensors(self) -> list[Tensor]:
        return [getattr(self, name) for name in self.FIELD_NAMES]

    def check_finite(self) -> None:
        for name, t in self.named_tensors().items():
            if not np.all(np.isfinite(t.data)):
                raise NumericError(f"non-finite values in parameter {name}")


def init_params(rng: np.random.Generator, n_morphemes: int,
                alphabet: Alphabet, d: int) -> ModelParams:
    """Fresh parameters: weight matrices N(0, 0.01), biases 0, embedding
    tables N(0, 1) matching the standard-normal prior on morpheme vectors."""
    if d < 1 or n_morphemes < 1:
        raise DataError(f"bad model size: d={d}, morphemes={n_morphemes}")

    def weights(*shape):
        return Tensor(rng.normal(0.0, 0.1, size=shape))

    return ModelParams(
        d=d,
        morph_emb=Tensor(rng.normal(0.0, 1.0, size=(n_morphemes, d))),
        char_emb=Tensor(rng.normal(0.0, 1.0, size=(alphabet.table_size, d))),
        lstm_wx=weights(4 * d, d),
        lstm_wh=weights(4 * d, d),
        lstm_b=Tensor(np.zeros(4 * d)),
        readout_w=weights(2 * d, 2 * d),
        readout_v=weights(alphabet.out_size, 2 * d),
        attn_t=weights(d, d),
    )


# ---------------------------------------------------------------------------
# building blocks

def lstm_step(params: ModelParams, x: Tensor, h: Tensor, c: Tensor):
    """One LSTM-cell update on input x; returns (new hidden, new cell)."""
    d = params.d
    z = ad.matmul(params.lstm_wx, x) + ad.matmul(params.lstm_wh, h) + params.lstm_b
    gi = ad.sigmoid(ad.narrow(z, 0, d))
    gf = ad.sigmoid(ad.narrow(z, d, d))
    go = ad.sigmoid(ad.narrow(z, 2 * d, d))
    cand = ad.tanh(ad.narrow(z, 3 * d, d))
    c2 = ad.mul(gf, c) + ad.mul(gi, cand)
    h2 = ad.mul(go, ad.tanh(c2))
    return h2, c2


def emission(h: Tensor, u: Tensor, params: ModelParams) -> Tensor:
    """log p(next symbol) over surface symbols plus EOS, from decoder
    state h and underlying form u: log_softmax(V tanh(W [h; u]))."""
    hidden = ad.tanh(ad.matmul(params.readout_w, ad.concat(h, u)))
    return ad.log_softmax(ad.matmul(params.readout_v, hidden))


def attention_log_weights(h: Tensor, m_rows: Tensor, attn_t: Tensor) -> Tensor:
    """log of the softmax over morphemes j of h^T T m_j, at the current h."""
    scores = ad.matmul(m_rows, ad.matmul(h, attn_t))
    return ad.log_softmax(scores)


def attention_weights(h: Tensor, m_rows: Tensor, attn_t: Tensor) -> Tensor:
    return ad.exp(attention_log_weights(h, m_rows, attn_t))


def uf_pos_independent_mean(m_rows: Tensor) -> Tensor:
    """Arithmetic mean of the morpheme rows: the word's single UF mean."""
    k = m_rows.data.shape[0]
    if k == 0:
        raise DataError("cannot build an underlying form from zero morphemes")
    return ad.matmul(np.full(k, 1.0 / k), m_rows)


def uf_pos_dependent_mean(h: Tensor, m_rows: Tensor, attn_t: Tensor) -> Tensor:
    """Attention-weighted mean of morpheme rows at the current state."""
    return ad.matmul(attention_weights(h, m_rows, attn_t), m_rows)


def joint_emission(h: Tensor, m_rows: Tensor, params: ModelParams) -> Tensor:
    """Mixture over morphemes of per-morpheme readouts, mixed in
    probability space: log sum_j alpha_j softmax(V tanh(W [h; m_j]))."""
    log_alpha = attention_log_weights(h, m_rows, params.attn_t)
    k = m_rows.data.shape[0]
    comps = []
    for j in range(k):
        comp = emission(h, ad.lookup(m_rows, j), params)
        comps.append(comp + ad.pick(log_alpha, j))
    if k == 1:
        out = comps[0]
    else:
        out = ad.logsumexp_rows(ad.stack_rows(comps))
    if not np.all(np.isfinite(out.data)):
        raise NumericError("non-finite mixture in joint emission")
    return out


# ---------------------------------------------------------------------------
# word-level decoding machinery

class IncrementalDecoder:
    """One word's spell-out process, advanced one symbol at a time.

    Everything fixed for the word is set up once: the morpheme embedding
    rows (with dropout in training mode), the variant, and the noise
    source. ``eps`` is a callable returning the next Gaussian noise
    vector; None means noise pinned to zero (the distribution mean),
    which is the evaluation-time convention. The position-independent
    variant consumes one noise draw for the whole word, the
    position-dependent variant one draw per step, and the joint variant
    none.

    ``step`` consumes the previous symbol's embedding-table id (BOS
    first) and returns the log-distribution over the next symbol.
    """

    def __init__(self, params: ModelParams, variant: Variant,
                 morphemes: Sequence[int], *,
                 training: bool = False, dropout: float = 0.0,
                 drop_rng: np.random.Generator | None = None,
                 eps: Callable[[], np.ndarray] | None = None):
        if len(morphemes) == 0:
            raise DataError("a word needs at least one morpheme")
        self.params = params
        self.variant = variant
        self.training = training
        self.dropout = dropout
        self.drop_rng = drop_rng
        self.eps = eps

        rows = [self._dropped(ad.lookup(params.morph_emb, m)) for m in morphemes]
        self.m_rows = ad.stack_rows(rows)

        if variant is Variant.POS_INDEPENDENT:
            self.u = self._noised(uf_pos_independent_mean(self.m_rows))

    def _dropped(self, t: Tensor) -> Tensor:
        if self.training and self.dropout > 0.0:
            return ad.dropout(t, self.dropout, training=True, rng=self.drop_rng)
        return t

    def _noised(self, mean: Tensor) -> Tensor:
        """u = mean + eps; the noise is a graph constant, so gradients flow
        through the mean only (the reparameterization)."""
        if self.eps is None:
            return mean
        return mean + np.asarray(self.eps(), dtype=np.float64)

    def start_state(self):
        d = self.params.d
        return Tensor(np.zeros(d)), Tensor(np.zeros(d))

    def step(self, state, prev_char_id: int):
        """Advance on the previous character; return (log-distribution over
        surface symbols + EOS, new state)."""
        h0, c0 = state
        x = self._dropped(ad.lookup(self.params.char_emb, prev_char_id))
        h, c = lstm_step(self.params, x, h0, c0)

        if self.variant is Variant.POS_INDEPENDENT:
            logdist = emission(h, self.u, self.params)
        elif self.variant is Variant.POS_DEPENDENT:
            u = self._noised(uf_pos_dependent_mean(h, self.m_rows, self.params.attn_t))
            logdist = emission(h, u, self.params)
        else:
            logdist = joint_emission(h, self.m_rows, self.params)
        return logdist, (h, c)


def word_logprob(variant: Variant, entry: LexiconEntry, params: ModelParams,
                 alphabet: Alphabet, *,
                 eps: Callable[[], np.ndarray] | None = None,
                 training: bool = False, dropout: float = 0.0,
                 drop_rng: np.random.Generator | None = None) -> Tensor:
    """Teacher-forced log p(surface | morphemes), summed over every
    character position plus the final EOS emission. ``eps`` supplies the
    underlying-form noise as in ``IncrementalDecoder``; None scores at the
    noise-free mean."""
    dec = IncrementalDecoder(params, variant, entry.morphemes,
                             training=training, dropout=dropout,
                             drop_rng=drop_rng, eps=eps)
    state = dec.start_state()
    prev = alphabet.bos_id
    total = None
    for sym in entry.form:
        logdist, state = dec.step(state, prev)
        term = ad.pick(logdist, sym)
        total = term if total is None else total + term
        prev = sym
    logdist, state = dec.step(state, prev)
    total_with_eos = ad.pick(logdist, alphabet.eos_out)
    total = total_with_eos if total is None else total + total_with_eos
    if not np.isfinite(total.data):
        raise NumericError("non-finite word log-probability")
    return total


def greedy_decode(variant: Variant, morphemes: Sequence[int], params: ModelParams,
                  alphabet: Alphabet, max_len: int) -> tuple[int, ...]:
    """Noise-free argmax decoding until EOS or ``max_len`` symbols.

    Returns surface symbol indices, BOS/EOS-free. Deterministic for a
    fixed parameter set (argmax ties break toward the lowest index).
    """
    if max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    dec = IncrementalDecoder(params, variant, morphemes)
    state = dec.start_state()
    prev = alphabet.bos_id
    out: list[int] = []
    for _ in range(max_len):
        logdist, state = dec.step(state, prev)
        sym = int(np.argmax(logdist.data))
        if sym == alphabet.eos_out:
            break
        out.append(sym)
        prev = sym
    return tuple(out)


def default_max_len(train_entries: Sequence[LexiconEntry]) -> int:
    """Decoding length cap: twice the longest training form plus slack."""
    longest = max((len(e.form) for e in train_entries), default=1)
    return 2 * longest + 5
