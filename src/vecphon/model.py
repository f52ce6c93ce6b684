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

The model is plain numpy; its building blocks take leading batch axes.
The output distribution is written once, in ``emit``, and factored:
W [h; u] = W_h h + W_u u, and u is linear in the morpheme rows m_j, so
they enter through their attention keys T m_j and readout shares W_u m_j.
Scoring a known form for training (``WordPass``) runs the LSTM
recurrence step by step and everything else on all T = |form| + 1
steps at once: the input projection is one matrix product, and the
readout, attention and joint mixture work on T rows (T*k rows for the
joint variant's k morphemes). ``WordPass.nll_backward`` is the
hand-derived gradient of that pass, with one weight-gradient matrix
product per word and parameter (Appleyard et al. 2016, arXiv:1604.01946).
Inference (``spell_and_score``) spells and scores in one lockstep pass
over chunks of up to BATCH_WORDS words of one morpheme count. The LSTM
reads only the symbols spelled so far, and the morphemes enter only at
the output layer, so words that share a prefix share its state: each
step runs ``lstm_step`` and the readout's state half once per distinct
prefix, and ``emit`` once per word. A decoded word leaves the batch at
EOS.
"""

from __future__ import annotations

import enum
import itertools
import math
import mmap
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError
from .vocab import Alphabet, LexiconEntry


class Variant(enum.Enum):
    POS_INDEPENDENT = "pos-indep"
    POS_DEPENDENT = "pos-dep"
    JOINT = "joint"

    @classmethod
    def _missing_(cls, tag):  # Variant(tag) of an unknown tag
        raise ValueError(f"unknown variant tag {tag!r}; choose from "
                         + ", ".join(v.value for v in cls))


def param_shapes(d: int, n_morphemes: int, alphabet: Alphabet) -> dict[str, tuple[int, ...]]:
    """Shapes of the trainable arrays for hidden size d, |M| morphemes and
    n surface symbols:

      morph_emb (|M|, d)    char_emb (n+3, d)
      lstm_wx (4d, d)       lstm_wh (4d, d)      lstm_b (4d,)
      readout_w (2d, 2d)    readout_v (n+1, 2d)  attn_t (d, d)

    LSTM gate blocks are stacked input/forget/output/candidate.
    """
    return {
        "morph_emb": (n_morphemes, d),
        "char_emb": (alphabet.table_size, d),
        "lstm_wx": (4 * d, d),
        "lstm_wh": (4 * d, d),
        "lstm_b": (4 * d,),
        "readout_w": (2 * d, 2 * d),
        "readout_v": (alphabet.out_size, 2 * d),
        "attn_t": (d, d),
    }


class ModelParams:
    """All trainable arrays (see ``param_shapes``) as views into one
    contiguous float64 buffer, ``flat``, in FIELD_NAMES order.

    Whole-buffer code (the optimizer, clipping, snapshots) works on
    ``flat``; model code reads the named views. Write into a field
    (``params.lstm_b[:] = ...``) rather than rebinding it, or it stops
    being a view of the buffer. ``like`` lays the same fields over a
    fresh zero buffer, which is how gradients are held. A ``shared``
    buffer is memory that forked children write into too.
    """

    FIELD_NAMES = ("morph_emb", "char_emb", "lstm_wx", "lstm_wh", "lstm_b",
                   "readout_w", "readout_v", "attn_t")

    def __init__(self, shapes: dict[str, tuple[int, ...]], shared: bool = False):
        self.shapes = {name: tuple(shapes[name]) for name in self.FIELD_NAMES}
        self.d = self.shapes["attn_t"][0]
        sizes = [math.prod(self.shapes[name]) for name in self.FIELD_NAMES]
        try:  # shared only on request: inference ran 20% slower on one (no huge pages)
            self.flat = (np.frombuffer(mmap.mmap(-1, max(8 * sum(sizes), 1)), count=sum(sizes))
                         if shared else np.zeros(sum(sizes)))
        except (MemoryError, ValueError, OverflowError, OSError):  # mmap: the last two
            raise DataError(f"cannot allocate {sum(sizes)} model parameters "
                            f"(d={self.d})") from None
        offset = 0
        for name, size in zip(self.FIELD_NAMES, sizes):
            setattr(self, name, self.flat[offset:offset + size].reshape(self.shapes[name]))
            offset += size

    def like(self, shared: bool = False) -> "ModelParams":
        """The same fields over a fresh zero buffer."""
        return ModelParams(self.shapes, shared)

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.FIELD_NAMES}

    def check_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        for name, arr in self.named_arrays().items():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite values in parameter {name}")


def init_params(rng: np.random.Generator, n_morphemes: int,
                alphabet: Alphabet, d: int, shared: bool = False) -> ModelParams:
    """Fresh parameters: weight matrices N(0, 0.01), biases 0, embedding
    tables N(0, 1) matching the standard-normal prior on morpheme vectors.
    Arrays are drawn in FIELD_NAMES order straight into the buffer."""
    if d < 1 or n_morphemes < 1:
        raise DataError(f"bad model size: d={d}, morphemes={n_morphemes}")
    params = ModelParams(param_shapes(d, n_morphemes, alphabet), shared)
    for name, arr in params.named_arrays().items():
        if name == "lstm_b":
            continue
        scale = 1.0 if name in ("morph_emb", "char_emb") else 0.1
        arr[...] = rng.normal(0.0, scale, size=arr.shape)
    return params


# ---------------------------------------------------------------------------
# building blocks; each works on one row or on rows with leading batch axes

def log_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable log softmax along the last axis."""
    if not np.all(np.isfinite(x)):
        raise NumericError("log_softmax received non-finite input")
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_backward(logp: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient with respect to the input of ``logp = log_softmax(x)``,
    given the gradient ``g`` with respect to ``logp``."""
    return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of ``x`` along ``axis``, which is dropped."""
    top = x.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(x - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def logsumexp_backward(x: np.ndarray, out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Gradient with respect to ``x`` of ``out = logsumexp(x, axis)``,
    given the gradient ``g`` with respect to ``out``."""
    return np.exp(x - np.expand_dims(out, axis)) * np.expand_dims(g, axis)


def dropout_masks(rng: np.random.Generator, rate: float, shape) -> np.ndarray:
    """Inverted-dropout masks: 0 with probability ``rate``, else
    1/(1 - rate), so evaluation needs no rescaling. One row drawn at a
    time gives the same values as the whole block."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def lstm_step(params: ModelParams, zx: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One LSTM-cell update of each row. ``zx`` is the input's share of
    the gate pre-activations, W_x x + b. Returns (new hidden, new cell,
    gate activations [i, f, o, g])."""
    d = params.d
    z = zx + h @ params.lstm_wh.T
    gates = np.empty_like(z)
    gates[..., :3 * d] = 1.0 / (1.0 + np.exp(-z[..., :3 * d]))
    gates[..., 3 * d:] = np.tanh(z[..., 3 * d:])
    i, f, o, g = gates[..., :d], gates[..., d:2 * d], gates[..., 2 * d:3 * d], gates[..., 3 * d:]
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2, gates


class Emission(NamedTuple):
    """Output of ``emit`` and what the backward pass needs of it."""
    logdist: np.ndarray           # log p(next symbol), one row per decoder state
    a: np.ndarray                 # hidden readout layer tanh(W [h; u]) (joint: per j)
    logp: np.ndarray              # readout log-distribution, per row of a
    log_alpha: np.ndarray | None  # attention log-weights (not pos-indep)


def emit(params: ModelParams, variant: Variant, h: np.ndarray, hw: np.ndarray,
         keys: np.ndarray, m_read: np.ndarray, noise: np.ndarray | None = None) -> Emission:
    """Per-step output distributions for decoder states ``h`` (..., d),
    given their readout share hw = h W_h^T (..., 2d) and their morphemes'
    attention keys T m_j (..., k, d) and readout shares W_u m_j
    (..., k, 2d), whose leading axes broadcast against h's: one word's
    (k, .) tables serve all of its T states, and (R, k, .) tables give
    one set per state. ``noise`` is the underlying form's noise share
    eps W_u^T: one row for pos-indep, one per state for pos-dep."""
    log_alpha = None
    if variant is Variant.POS_INDEPENDENT:  # u: the morpheme rows' arithmetic mean
        pre = hw + m_read.mean(axis=-2)
    else:  # attention: the softmax over morphemes j of h^T T m_j
        log_alpha = log_softmax(np.matmul(keys, h[..., None])[..., 0])
        if variant is Variant.POS_DEPENDENT:  # u: the attention-weighted mean
            pre = hw + np.matmul(np.exp(log_alpha)[..., None, :], m_read)[..., 0, :]
        else:  # one readout per morpheme, u = m_j
            pre = hw[..., None, :] + m_read
    if noise is not None:
        pre = pre + noise
    a = np.tanh(pre)
    logp = log_softmax(a @ params.readout_v.T)
    if variant is not Variant.JOINT:
        return Emission(logp, a, logp, log_alpha)
    # mix per-morpheme readouts in probability space
    mix = logsumexp(logp + log_alpha[..., None], axis=-2)
    if not np.all(np.isfinite(mix)):
        raise NumericError("non-finite mixture in joint emission")
    return Emission(mix, a, logp, log_alpha)


# ---------------------------------------------------------------------------
# scoring a known form, forward and backward

class WordPass:
    """Teacher-forced log p(surface | morphemes) of one word, summed over
    every character position plus the final EOS emission, with what the
    backward pass needs.

    ``eps`` is a callable returning the next Gaussian noise vector; None
    means noise pinned to zero (the distribution mean), which is the
    evaluation-time convention. The position-independent variant draws
    one vector for the word, the position-dependent variant one per step,
    and the joint variant none. Dropout is on iff ``dropout > 0``; then
    ``drop_rng`` supplies the masks: one row per morpheme, then one per
    step. Training is the only caller that turns it on.
    """

    def __init__(self, variant: Variant, entry: LexiconEntry, params: ModelParams,
                 alphabet: Alphabet, *,
                 eps: Callable[[], np.ndarray] | None = None, dropout: float = 0.0,
                 drop_rng: np.random.Generator | None = None):
        if len(entry.morphemes) == 0:
            raise DataError("a word needs at least one morpheme")
        self.variant = variant
        self.params = params
        self.morphemes = list(entry.morphemes)
        self.inputs = [alphabet.bos_id, *entry.form]
        self.targets = [*entry.form, alphabet.eos_out]
        k, T, d = len(self.morphemes), len(self.inputs), params.d

        self.m_rows = params.morph_emb[self.morphemes]
        self.x = params.char_emb[self.inputs]
        self.masks = None
        if dropout > 0.0:
            self.masks = dropout_masks(drop_rng, dropout, (k + T, d))
            self.m_rows *= self.masks[:k]
            self.x *= self.masks[k:]

        self.noise = None
        if eps is not None and variant is Variant.POS_INDEPENDENT:
            self.noise = np.asarray(eps(), dtype=np.float64)
        elif eps is not None and variant is Variant.POS_DEPENDENT:
            self.noise = np.array([eps() for _ in range(T)], dtype=np.float64)

        zx = self.x @ params.lstm_wx.T + params.lstm_b
        self.h = np.empty((T, d))
        self.c = np.empty((T, d))
        self.gates = np.empty((T, 4 * d))
        h = c = np.zeros(d)
        for t in range(T):
            h, c, self.gates[t] = lstm_step(params, zx[t], h, c)
            self.h[t], self.c[t] = h, c

        w_u = params.readout_w[:, d:]
        self.keys = self.m_rows @ params.attn_t.T
        self.out = emit(params, variant, self.h, self.h @ params.readout_w[:, :d].T, self.keys,
                        self.m_rows @ w_u.T, None if self.noise is None else self.noise @ w_u.T)
        self.logprob = self.out.logdist[np.arange(T), self.targets].sum()
        if not np.isfinite(self.logprob):
            raise NumericError("non-finite word log-probability")

    def nll_backward(self, grads: ModelParams, *, accumulate: bool = True) -> None:
        """Add the gradient of -log p(word) with respect to every parameter
        into ``grads``, which has the parameters' layout. Noise is a
        constant, so gradients reach the underlying form through its mean
        only (the reparameterization). With ``accumulate`` false, the
        fields other than the embedding tables that the variant reads are
        overwritten instead."""
        if grads.shapes != self.params.shapes:
            raise ShapeError("gradient buffer layout does not match the parameters'")
        p, out, variant = self.params, self.out, self.variant
        T, d = self.h.shape
        k = len(self.morphemes)
        dlogdist = np.zeros_like(out.logdist)
        dlogdist[np.arange(T), self.targets] = -1.0

        if variant is Variant.JOINT:
            comps = out.logp + out.log_alpha[:, :, None]
            dlogp = logsumexp_backward(comps, out.logdist, dlogdist, axis=1)
            dlog_alpha = dlogp.sum(axis=2)
        else:
            dlogp = dlogdist
        def put(field, op, *args, **kwargs):  # field (+)= op(*args, **kwargs)
            if op is np.matmul and args[0].shape[1] == 1:  # numpy skips BLAS at K=1,
                op = np.multiply  # where the broadcast outer product gives the same bits faster
            if accumulate:
                field += op(*args, **kwargs)
            else:
                op(*args, out=field, **kwargs)
        a = out.a.reshape(-1, 2 * d)
        dlogits = log_softmax_backward(out.logp, dlogp).reshape(len(a), -1)
        put(grads.readout_v, np.matmul, dlogits.T, a)
        dpre = ((dlogits @ p.readout_v) * (1.0 - a * a)).reshape(out.a.shape)
        # W [h; u] = W_h h + W_u u: each u = weights @ m_rows (+ noise)
        # takes the summed dpre of the rows that read it
        if variant is Variant.JOINT:  # u = m_j in component j
            rows, weights, dpre = dpre.sum(axis=0), np.eye(k), dpre.sum(axis=1)
        elif variant is Variant.POS_INDEPENDENT:  # one u for every step
            rows, weights = dpre.sum(axis=0, keepdims=True), np.full((1, k), 1.0 / k)
        else:  # one u per step
            rows, weights = dpre, np.exp(out.log_alpha)
        u = weights @ self.m_rows
        if self.noise is not None:
            u += self.noise
        # both halves, dpre.T @ h and rows.T @ u, as one product with
        # [h 0; 0 u]: two products into the strided halves took about
        # twice as long at d=200
        blocks = np.zeros((len(dpre) + len(rows), 2 * d))
        blocks[:len(dpre), :d], blocks[len(dpre):, d:] = self.h, u
        put(grads.readout_w, np.matmul, np.concatenate([dpre, rows]).T, blocks)
        dh = dpre @ p.readout_w[:, :d]
        du = rows @ p.readout_w[:, d:]
        dm = weights.T @ du
        if variant is Variant.POS_DEPENDENT:
            dlog_alpha = (du @ self.m_rows.T) * weights
        if variant is not Variant.POS_INDEPENDENT:  # through the keys T m_j
            ds = log_softmax_backward(out.log_alpha, dlog_alpha)
            dh += ds @ self.keys
            dkeys = ds.T @ self.h
            dm += dkeys @ p.attn_t
            put(grads.attn_t, np.matmul, dkeys.T, self.m_rows)

        dz = self._lstm_backward(dh)
        put(grads.lstm_wx, np.matmul, dz.T, self.x)
        put(grads.lstm_wh, np.matmul, dz[1:].T, self.h[:-1])
        put(grads.lstm_b, np.sum, dz, axis=0)
        dx = dz @ p.lstm_wx
        if self.masks is not None:
            dm *= self.masks[:k]
            dx *= self.masks[k:]
        np.add.at(grads.morph_emb, self.morphemes, dm)
        np.add.at(grads.char_emb, self.inputs, dx)

    def _lstm_backward(self, dh_out: np.ndarray) -> np.ndarray:
        """Backpropagation through time: gradients of the gate
        pre-activations, one row per step, given each step's gradient
        with respect to its hidden state from the emissions."""
        T, d = dh_out.shape
        wh = self.params.lstm_wh
        i, f, o, g = (self.gates[:, j * d:(j + 1) * d] for j in range(4))
        tc = np.tanh(self.c)
        c_prev = np.vstack([np.zeros((1, d)), self.c[:-1]])
        # what multiplies the step's cell (or, for o, hidden) gradient
        # in each block of dz: the gate's local derivative and partner
        local = np.concatenate([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                                tc * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dc_dh = o * (1.0 - tc * tc)
        dz = np.empty((T, 4 * d))
        dh = np.zeros(d)
        dc = np.zeros(d)
        for t in range(T - 1, -1, -1):
            dh = dh_out[t] + dh
            dc = dc + dh * dc_dh[t]
            np.multiply(np.concatenate((dc, dc, dh, dc)), local[t], out=dz[t])
            dc = dc * f[t]
            dh = dz[t] @ wh
        return dz


# ---------------------------------------------------------------------------
# inference: words in lockstep, one LSTM row per distinct prefix

BATCH_WORDS = 64  # words of one morpheme count per lockstep chunk; bounds a step's rows


def spell_and_score(variant: Variant, morphemes: Sequence[Sequence[int]],
                    forms: Sequence[Sequence[int] | None], params: ModelParams,
                    alphabet: Alphabet, max_len: int | None = None) -> tuple[list, np.ndarray]:
    """Noise-free greedy spelling and gold log-probability of each word,
    in one lockstep pass. ``morphemes[i]`` are word i's morpheme ids and
    ``forms[i]`` its gold symbols or None.
    Returns, in input order, the BOS/EOS-free argmax symbols until EOS or
    ``max_len`` symbols (all empty when ``max_len`` is None, which only
    scores) and ``WordPass.logprob`` at the noise-free mean (NaN without
    gold).

    A word with gold is one teacher-forced row that carries its spelling
    while the argmax equals the gold symbol; where they part, a free row
    forks from the same state. Chunks hold up to BATCH_WORDS words of one
    morpheme count, sorted by form so that neighbours share prefixes,
    and each step runs the LSTM and the readout's state half once per
    distinct prefix. The BOS state and the morphemes' attention keys and
    readout shares are computed once per call."""
    if not all(map(len, morphemes)):
        raise DataError("a word needs at least one morpheme")
    if max_len is not None and max_len < 1:
        raise DataError(f"max_len must be >= 1, got {max_len}")
    d, eos, size = params.d, alphabet.eos_out, alphabet.table_size
    zx = params.char_emb @ params.lstm_wx.T + params.lstm_b  # no dropout: a row lookup
    w_h = params.readout_w[:, :d].T
    used = np.array(sorted(set(itertools.chain.from_iterable(morphemes))), dtype=np.intp)
    m = params.morph_emb[used]
    keys, m_read = m @ params.attn_t.T, m @ params.readout_w[:, d:].T
    h_bos, c_bos, _ = lstm_step(params, zx[[alphabet.bos_id]], *np.zeros((2, 1, d)))
    spelled: list[tuple[int, ...]] = [()] * len(morphemes)
    logprobs = np.full(len(morphemes), np.nan)
    order = sorted(range(len(morphemes)), key=lambda i: (
        len(morphemes[i]), tuple(forms[i] or ()), tuple(morphemes[i])))
    groups = [list(g) for _, g in itertools.groupby(order, key=lambda i: len(morphemes[i]))]
    for rows in (g[i:i + BATCH_WORDS] for g in groups for i in range(0, len(g), BATCH_WORDS)):
        mid = np.searchsorted(used, [morphemes[i] for i in rows])
        has = np.array([forms[i] is not None for i in rows])
        gold = [forms[i] or () for i in rows]
        last = max(map(len, gold))
        targets = np.array([[*f, *[eos] * (last + 1 - len(f))] for f in gold])
        # live rows: word positions in rows (nt teacher-forced first), at states h[at]
        nt = int(has.sum())
        word = np.argsort(~has, kind="stable")[:len(rows) if max_len else nt]
        spells = np.full(len(word), max_len is not None)
        at = np.zeros(len(word), dtype=np.intp)
        h, c, hw = h_bos, c_bos, h_bos @ w_h
        score = np.zeros(len(rows))
        steps = []  # (words, symbols) spelled at each step
        for t in itertools.count():
            tables = keys[mid[word]], m_read[mid[word]]
            logdist = emit(params, variant, h[at], hw[at], *tables).logdist
            target = targets[word[:nt], min(t, last)]
            score[word[:nt]] += logdist[np.arange(nt), target]
            best = logdist.argmax(axis=1)  # ties break toward the lowest index
            steps.append((word[spells], best[spells]))
            more = max_len is not None and t + 1 < max_len
            agree = best[:nt] == target
            go = target != eos
            fork = spells[:nt] & ~agree & (best[:nt] != eos) & more
            free = np.concatenate([fork, (best[nt:] != eos) & more])
            parent = np.concatenate([at[:nt][go], at[free]])
            symbol = np.concatenate([target[go], best[free]])
            word = np.concatenate([word[:nt][go], word[free]])
            spells = np.concatenate([(spells[:nt] & agree)[go] & more, np.ones(free.sum(), bool)])
            nt = int(go.sum())
            if not word.size:
                break
            ids: dict[int, int] = {}  # np.unique would import numpy.ma, 2 MB and 40 ms
            at = np.array([ids.setdefault(p, len(ids)) for p in (parent * size + symbol).tolist()])
            parent, symbol = np.divmod(np.fromiter(ids, dtype=np.intp), size)
            h, c, _ = lstm_step(params, zx[symbol], h[parent], c[parent])
            hw = h @ w_h
        spelled_rows = np.full((len(rows), len(steps)), eos)
        for t, (where, symbols) in enumerate(steps):
            spelled_rows[where, t] = symbols
        for j, i in enumerate(rows):
            spelled[i] = tuple(itertools.takewhile(eos.__ne__, spelled_rows[j].tolist()))
        logprobs[rows] = np.where(has, score, np.nan)
    if not np.all(np.isfinite(logprobs[[f is not None for f in forms]])):
        raise NumericError("non-finite word log-probability")
    return spelled, logprobs
