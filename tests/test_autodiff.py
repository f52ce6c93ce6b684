"""Gradient and optimizer checks: the model's normalizers, backward
pass, dropout and parameter layout, and ``Adam`` and clipping.

The model's hand-derived backward pass is compared against central
finite differences of its own forward pass; optimizer updates on the
flat parameter buffer are compared against an independently coded
scalar reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from vecphon import model as md
from vecphon.autodiff import ADAM_EPS, Adam, clip_global_norm
from vecphon.errors import ConfigError, NumericError, ShapeError
from vecphon.model import Variant, WordPass, init_params
from vecphon.vocab import Alphabet, LexiconEntry

STEP = 1e-5
RTOL = 1e-4
ATOL = 1e-7
ALL_VARIANTS = [Variant.POS_INDEPENDENT, Variant.POS_DEPENDENT, Variant.JOINT]


def assert_close(a, b, rtol=RTOL, atol=ATOL):
    a = np.asarray(a)
    b = np.asarray(b)
    err = np.abs(a - b)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    worst = np.max(err - tol)
    assert np.all(err <= tol), f"gradient mismatch, worst excess {worst:.3e}"


def word_setup(seed, d=3, n_chars=4, n_morphs=4):
    alphabet = Alphabet([chr(ord("a") + i) for i in range(n_chars)])
    params = init_params(np.random.default_rng(seed), n_morphs, alphabet, d)
    return alphabet, params


def pass_kwargs(params, seed, dropout=0.0):
    """Fresh, identically seeded noise and dropout sources, so every call
    sees the same draws."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((16, params.d))
    it = iter(noise)
    kwargs = {"eps": lambda: next(it)}
    if dropout > 0.0:
        kwargs.update(dropout=dropout, drop_rng=np.random.default_rng(seed + 1))
    return kwargs


def analytic_grads(variant, entry, params, alphabet, kwargs):
    grads = params.like()
    WordPass(variant, entry, params, alphabet, **kwargs).nll_backward(grads)
    return grads


def fd_grads(variant, entry, params, alphabet, make_kwargs, name):
    """Central differences of -log p(word) with respect to one field."""
    arr = getattr(params, name)
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + STEP
        hi = -WordPass(variant, entry, params, alphabet, **make_kwargs()).logprob
        arr[idx] = keep - STEP
        lo = -WordPass(variant, entry, params, alphabet, **make_kwargs()).logprob
        arr[idx] = keep
        g[idx] = (hi - lo) / (2.0 * STEP)
    return g


def check_word_grads(variant, entry, params, alphabet, make_kwargs, names=None):
    grads = analytic_grads(variant, entry, params, alphabet, make_kwargs())
    for name in names or params.FIELD_NAMES:
        assert_close(getattr(grads, name),
                     fd_grads(variant, entry, params, alphabet, make_kwargs, name))
    return grads


# ---------------------------------------------------------------------------
# building blocks against hand arithmetic

def test_matmul_values_by_hand():
    # the cell's recurrent product, the readout and the attention scores on
    # small integer parameters, against products worked out by hand
    alphabet, params = word_setup(0, d=2, n_chars=2, n_morphs=3)
    params.flat[:] = 0.0

    params.lstm_wh[:] = np.arange(16.0).reshape(8, 2)  # W_h @ [1, -1] = -1 per row
    zx = 0.1 * np.arange(8.0)
    h, c, gates = md.lstm_step(params, zx, np.array([1.0, -1.0]), np.array([1.0, 2.0]))
    z = zx - 1.0
    sig = 1.0 / (1.0 + np.exp(-z[:6]))
    assert np.array_equal(gates, np.concatenate([sig, np.tanh(z[6:])]))
    i, f, o, g = gates[:2], gates[2:4], gates[4:6], gates[6:]
    assert np.array_equal(c, f * [1.0, 2.0] + i * g)
    assert np.array_equal(h, o * np.tanh(c))

    params.readout_w[:] = [[1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, -1]]
    params.readout_v[:] = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    w_h, w_u = params.readout_w[:, :2], params.readout_w[:, 2:]

    def factored(variant, h, m_rows):  # emit with the tables WordPass builds
        return md.emit(params, variant, h, h @ w_h.T, m_rows @ params.attn_t.T, m_rows @ w_u.T)

    # the readout of [h; u] = [1, 1; 2, -1] and [0, 0; 0, 0], one morpheme row per state
    out = factored(md.Variant.POS_INDEPENDENT, np.array([[1.0, 1.0], [0.0, 0.0]]),
                   np.array([[[2.0, -1.0]], [[0.0, 0.0]]]))
    a, logp = out.a, out.logdist
    assert np.array_equal(a[0], np.tanh([3.0, 1.0, 0.0, 2.0]))
    assert np.array_equal(a[1], np.zeros(4))
    assert np.allclose(logp[0], md.log_softmax(np.tanh([3.0, 1.0, 0.0])), rtol=0, atol=1e-15)
    assert np.allclose(logp[1], np.log(1.0 / 3.0), rtol=0, atol=1e-15)

    params.attn_t[:] = [[1, 0], [0, 2]]
    m_rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rows = factored(md.Variant.POS_DEPENDENT, np.array([[1.0, 2.0], [1.0, 0.0]]), m_rows).log_alpha
    # h T = [1, 4] and [1, 0]; scores against the rows are [1, 4, 5] and [1, 0, 1]
    assert np.array_equal(rows[0], md.log_softmax(np.array([1.0, 4.0, 5.0])))
    assert np.array_equal(rows[1], md.log_softmax(np.array([1.0, 0.0, 1.0])))
    # the pos-indep readout reads u = the mean of the morpheme rows
    uf = factored(md.Variant.POS_INDEPENDENT, np.zeros(2), np.array([[1.0, 2.0], [3.0, 4.0]])).a
    assert np.array_equal(uf, np.tanh(params.readout_w @ [0.0, 0.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# normalizers

def test_log_softmax_normalizes_and_is_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=9)
    ls = md.log_softmax(x)
    shifted = md.log_softmax(x + 123.456)
    assert abs(np.exp(ls).sum() - 1.0) < 1e-12
    assert np.max(np.abs(ls - shifted)) < 1e-10
    rows = rng.normal(size=(3, 9))  # a stack of rows normalizes row by row
    assert np.allclose(md.log_softmax(rows)[1], md.log_softmax(rows[1]), rtol=0, atol=1e-15)


def test_log_softmax_survives_huge_inputs():
    x = np.array([1e4, -1e4, 0.0])
    out = md.log_softmax(x)
    assert np.all(np.isfinite(out))
    assert abs(out[0]) < 1e-12  # the dominant entry carries all the mass


def test_log_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        md.log_softmax(np.array([0.0, np.inf]))


def test_logsumexp_rows_matches_naive():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 6))
    out = md.logsumexp(m, axis=0)
    assert_close(out, np.log(np.exp(m).sum(axis=0)), rtol=1e-12, atol=1e-12)


def test_log_softmax_grads():
    rng = np.random.default_rng(10)
    x = rng.normal(size=7)
    w = rng.normal(size=7)

    def f(v):
        return float(md.log_softmax(v) @ w)

    fd = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += STEP
        lo[i] -= STEP
        fd[i] = (f(hi) - f(lo)) / (2.0 * STEP)
    assert_close(md.log_softmax_backward(md.log_softmax(x), w), fd)


def test_logsumexp_rows_grads():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 5))
    w = rng.normal(size=5)

    def f(v):
        return float(md.logsumexp(v, axis=0) @ w)

    fd = np.zeros_like(m)
    for idx in np.ndindex(m.shape):
        hi, lo = m.copy(), m.copy()
        hi[idx] += STEP
        lo[idx] -= STEP
        fd[idx] = (f(hi) - f(lo)) / (2.0 * STEP)
    assert_close(md.logsumexp_backward(m, md.logsumexp(m, axis=0), w, axis=0), fd)


# ---------------------------------------------------------------------------
# the word's backward pass against finite differences

def test_lookup_and_pick_grads():
    # embedding rows are gathered and target log-probabilities picked:
    # the gradient lands, correct, on the rows used and nowhere else
    alphabet, params = word_setup(9, n_chars=5, n_morphs=5)
    entry = LexiconEntry(morphemes=(1, 3), form=(0, 2))
    for variant in ALL_VARIANTS:
        grads = check_word_grads(variant, entry, params, alphabet,
                                 lambda: pass_kwargs(params, 3),
                                 names=("morph_emb", "char_emb"))
        assert np.all(grads.morph_emb[[0, 2, 4]] == 0.0)
        unused = [r for r in range(alphabet.table_size) if r not in (alphabet.bos_id, 0, 2)]
        assert np.all(grads.char_emb[unused] == 0.0)


def test_shared_input_grads_accumulate():
    # a symbol read twice and a morpheme listed twice add both contributions
    alphabet, params = word_setup(13)
    entry = LexiconEntry(morphemes=(2, 2, 0), form=(1, 1, 3, 1))
    for variant in ALL_VARIANTS:
        check_word_grads(variant, entry, params, alphabet,
                         lambda: pass_kwargs(params, 4),
                         names=("morph_emb", "char_emb"))


def test_randomized_composite_expressions():
    # random sizes, words and parameters; every field of every variant
    rng = np.random.default_rng(14)
    for trial in range(6):
        d = int(rng.integers(2, 4))
        n_chars = int(rng.integers(2, 4))
        alphabet, params = word_setup(100 + trial, d=d, n_chars=n_chars, n_morphs=3)
        k = int(rng.integers(1, 4))
        entry = LexiconEntry(morphemes=tuple(rng.integers(0, 3, size=k)),
                             form=tuple(rng.integers(0, n_chars, size=int(rng.integers(0, 4)))))
        variant = ALL_VARIANTS[trial % 3]
        dropout = 0.3 if trial >= 3 else 0.0
        check_word_grads(variant, entry, params, alphabet,
                         lambda: pass_kwargs(params, 200 + trial, dropout))


def test_matmul_grads_all_rank_combinations():
    # each weight gradient is one matrix product over the word's rows;
    # check it where those products degenerate (one step, one morpheme)
    # as well as over several of each
    alphabet, params = word_setup(6)
    for morphs, form in (((1,), ()), ((0, 2), ()), ((3,), (1, 2, 0)), ((0, 1, 2), (2, 2, 1))):
        entry = LexiconEntry(morphs, form)
        for variant in ALL_VARIANTS:
            grads = check_word_grads(variant, entry, params, alphabet,
                                     lambda: pass_kwargs(params, 6))
            if not form:  # one step from the zero state: W_h multiplies only zeros
                assert np.all(grads.lstm_wh == 0.0)
            else:
                assert np.any(grads.lstm_wh != 0.0)


def test_add_row_broadcast_grads():
    # the LSTM bias is added to every step's input projection, and the
    # pos-indep underlying form to every step's readout input: their
    # gradients sum over the steps
    alphabet, params = word_setup(3)
    entry = LexiconEntry((0, 1), (2, 0, 3, 1))
    for variant in ALL_VARIANTS:
        check_word_grads(variant, entry, params, alphabet,
                         lambda: pass_kwargs(params, 3), names=("lstm_b", "morph_emb"))


def test_unary_grads():
    # gate sigmoids, the tanh of the cell and of the readout layer, and the
    # exp inside the softmaxes, driven well away from their linear range
    alphabet, params = word_setup(12)
    rng = np.random.default_rng(12)
    for name in ("lstm_wx", "lstm_wh", "readout_w", "readout_v", "attn_t"):
        getattr(params, name)[...] *= 10.0
    params.lstm_b[:] = rng.normal(0.0, 1.0, size=params.lstm_b.shape)
    entry = LexiconEntry((0, 3), (1, 2, 3))
    for variant in ALL_VARIANTS:
        word = WordPass(variant, entry, params, alphabet)
        d = params.d
        assert np.any(np.abs(word.gates[:, :3 * d] - 0.5) > 0.4)  # sigmoid' < 0.1
        assert np.any(np.abs(word.out.a) > 0.7)                    # tanh' < 0.51
        check_word_grads(variant, entry, params, alphabet, lambda: pass_kwargs(params, 12))


def test_concat_grads():
    # the readout reads [h; u] (joint: [h; m_j]), and its input gradient
    # splits at column d. In pos-indep, morphemes reach the output only
    # through u and the LSTM only through h, so silencing either half of
    # the readout weights zeroes exactly that side's gradients
    alphabet, params = word_setup(7, d=4)
    entry = LexiconEntry((0, 2), (1, 3, 0))
    d = params.d
    for variant in ALL_VARIANTS:
        check_word_grads(variant, entry, params, alphabet, lambda: pass_kwargs(params, 7),
                         names=("readout_w", "morph_emb", "lstm_wx"))

    u_off = init_params(np.random.default_rng(7), 4, alphabet, d)
    u_off.readout_w[:, d:] = 0.0
    grads = analytic_grads(Variant.POS_INDEPENDENT, entry, u_off, alphabet, {})
    assert np.all(grads.morph_emb == 0.0)
    assert np.all(grads.readout_w[:, d:] != 0.0) and np.any(grads.lstm_wx != 0.0)

    h_off = init_params(np.random.default_rng(7), 4, alphabet, d)
    h_off.readout_w[:, :d] = 0.0
    grads = analytic_grads(Variant.POS_INDEPENDENT, entry, h_off, alphabet, {})
    for name in ("lstm_wx", "lstm_wh", "lstm_b", "char_emb"):
        assert np.all(getattr(grads, name) == 0.0), name
    assert np.any(grads.morph_emb != 0.0)


def test_stack_rows_grads():
    # the step loop's states are stacked into one (T, d) block (T*k rows
    # for the joint variant) for the emissions; every row's gradient must
    # flow back to its own step. Each step reads a different symbol, so
    # each char_emb row's gradient is one step's
    alphabet, params = word_setup(8, d=2, n_chars=6, n_morphs=3)
    entry = LexiconEntry((0, 1, 2), (5, 4, 3, 2, 1, 0))
    for variant in ALL_VARIANTS:
        grads = check_word_grads(variant, entry, params, alphabet,
                                 lambda: pass_kwargs(params, 8), names=("char_emb", "lstm_wh"))
        assert np.all(grads.char_emb[[alphabet.bos_id, 0, 1, 2, 3, 4, 5]] != 0.0)


def test_backward_twice_equals_backward_of_sum():
    # gradients of several words accumulate in one buffer as a sum
    alphabet, params = word_setup(18)
    words = [LexiconEntry((0, 1), (2, 0)), LexiconEntry((3,), (1, 1, 2))]
    for variant in ALL_VARIANTS:
        both = params.like()
        separate = []
        for w in words:
            WordPass(variant, w, params, alphabet).nll_backward(both)
            separate.append(analytic_grads(variant, w, params, alphabet, {}).flat)
        assert np.allclose(both.flat, separate[0] + separate[1], rtol=0, atol=1e-15)


def test_word_pass_is_deterministic():
    # the same word, parameters, noise and dropout draws give a bitwise
    # identical log-probability and gradient
    alphabet, params = word_setup(19, d=4)
    entry = LexiconEntry((1, 0, 3), (2, 0, 1, 1))
    for variant in ALL_VARIANTS:
        runs = []
        for _ in range(2):
            kwargs = pass_kwargs(params, 19, dropout=0.3)
            word = WordPass(variant, entry, params, alphabet, **kwargs)
            grads = params.like()
            word.nll_backward(grads)
            runs.append((word.logprob, grads.flat))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


def test_backward_repeats_and_leaves_the_forward_pass():
    # the backward pass keeps no gradient state of its own and changes
    # neither the parameters nor the recorded forward pass: run again, it
    # gives exactly the same gradient, and into the same buffer it adds
    # that gradient once more
    alphabet, params = word_setup(20)
    before = params.flat.copy()
    entry = LexiconEntry((2, 1), (0, 3, 3))
    for variant in ALL_VARIANTS:
        word = WordPass(variant, entry, params, alphabet, **pass_kwargs(params, 20))
        logprob, h = word.logprob, word.h.copy()
        grads = params.like()
        word.nll_backward(grads)
        again = params.like()
        word.nll_backward(again)
        assert np.array_equal(again.flat, grads.flat)
        word.nll_backward(grads)
        assert np.allclose(grads.flat, 2.0 * again.flat, rtol=0, atol=1e-15)
        assert word.logprob == logprob and np.array_equal(word.h, h)
        assert np.array_equal(params.flat, before)


def test_backward_rejects_a_buffer_of_another_layout():
    # the backward pass writes only into a gradient buffer laid out like
    # its parameters; another layout would take the updates silently
    alphabet, params = word_setup(21)
    word = WordPass(Variant.JOINT, LexiconEntry((0,), (1,)), params, alphabet)
    for other in (word_setup(21, n_morphs=5)[1], word_setup(21, d=4)[1]):
        grads = other.like()
        with pytest.raises(ShapeError):
            word.nll_backward(grads)
        assert np.all(grads.flat == 0.0)


def test_shape_errors():
    alphabet, params = word_setup(22)
    with pytest.raises(ShapeError):
        Adam(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(IndexError):
        WordPass(Variant.POS_INDEPENDENT, LexiconEntry((4,), (0,)), params, alphabet)
    with pytest.raises(IndexError):
        WordPass(Variant.POS_INDEPENDENT, LexiconEntry((0,), (alphabet.table_size,)),
                 params, alphabet)


def test_fields_tile_the_flat_buffer():
    # each field is a slice of the flat buffer: the fields tile it in
    # FIELD_NAMES order with no gap or overlap, so a gradient written
    # through a field of `like()` lands in that slice of the gradient buffer
    alphabet, params = word_setup(23)
    grads = params.like()
    WordPass(Variant.POS_DEPENDENT, LexiconEntry((0, 1), (2, 3)), params,
             alphabet).nll_backward(grads)
    for p in (params, grads):
        offset = 0
        for name in p.FIELD_NAMES:
            arr = getattr(p, name)
            assert arr.base is p.flat or arr.base is p.flat.base, name
            assert arr.ctypes.data == p.flat.ctypes.data + 8 * offset, name
            offset += arr.size
        assert offset == p.flat.size
    assert np.array_equal(grads.flat, np.concatenate(
        [getattr(grads, name).ravel() for name in grads.FIELD_NAMES]))


# ---------------------------------------------------------------------------
# dropout

def test_dropout_identity_when_off():
    alphabet, params = word_setup(15)
    entry = LexiconEntry((0, 1), (2, 1))
    base = WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet).logprob
    rng = np.random.default_rng(15)
    got = WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet,
                   dropout=0.0, drop_rng=rng).logprob
    assert got == base
    assert rng.random() == np.random.default_rng(15).random()  # nothing drawn


def test_dropout_preserves_mean_and_masks_grads():
    rng = np.random.default_rng(16)
    mask = md.dropout_masks(rng, 0.25, (20000,))
    kept = mask != 0.0
    assert abs(kept.mean() - 0.75) < 0.01
    assert np.allclose(mask[kept], 1.0 / 0.75)
    # a dropped input component passes no gradient to its embedding
    alphabet, params = word_setup(16, d=6, n_chars=5)
    entry = LexiconEntry((0, 1), (0, 1, 2, 3))  # every input symbol read once
    word = WordPass(Variant.POS_DEPENDENT, entry, params, alphabet,
                    dropout=0.5, drop_rng=np.random.default_rng(6))
    grads = params.like()
    word.nll_backward(grads)
    step_masks = word.masks[len(entry.morphemes):]
    assert np.any(step_masks == 0.0)
    for sym, m in zip(word.inputs, step_masks):
        assert np.all(grads.char_emb[sym][m == 0.0] == 0.0)
        assert np.all(grads.char_emb[sym][m != 0.0] != 0.0)


def test_dropout_rejects_bad_rate():
    rng = np.random.default_rng(17)
    with pytest.raises(ConfigError):
        md.dropout_masks(rng, 1.0, (1,))
    with pytest.raises(ConfigError):
        md.dropout_masks(rng, -0.1, (1,))


# ---------------------------------------------------------------------------
# optimizer and clipping on flat buffers

def test_adam_first_step_closed_form():
    # with bias correction the first update is -lr * g / (|g| + eps')
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 0.0])
    opt = Adam(p, g.copy(), lr=0.01)
    opt.step()
    eps_hat = ADAM_EPS
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + eps_hat)
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_adam_matches_scalar_reference_on_quadratic():
    # independent reference implementation, scalar arithmetic only
    def reference(x0, steps, lr):
        x, m, v = x0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, steps + 1):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        return x

    # a buffer longer than one Adam block, every element its own quadratic
    x0 = np.linspace(-3.0, 3.0, 40001)
    p = x0.copy()
    g = np.zeros_like(p)
    opt = Adam(p, g, lr=0.05)
    for _ in range(200):
        np.multiply(p, 2.0, out=g)
        opt.step()
    for i in (0, 1, 16384, 20000, 40000):
        assert abs(p[i] - reference(x0[i], 200, 0.05)) < 1e-12
    assert abs(p[0]) < 0.5  # and it actually descended


def test_adam_treats_missing_grad_as_zero():
    p = np.array([1.0, 2.0])
    opt = Adam(p, np.zeros(2), lr=0.1)
    opt.step()
    assert np.array_equal(p, [1.0, 2.0])


def test_adam_rejects_mismatched_grad():
    with pytest.raises(ShapeError):
        Adam(np.zeros(3), np.zeros(4))


def test_clip_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    norm = clip_global_norm(g, 5.0)
    assert norm == 5.0
    assert np.array_equal(g, [3.0, 0.0, 0.0, 4.0])  # at the threshold, untouched

    g[:] = [6.0, 0.0, 0.0, 8.0]
    norm = clip_global_norm(g, 5.0)
    assert norm == 10.0
    assert abs(np.sqrt((g ** 2).sum()) - 5.0) < 1e-12
    assert np.allclose(g, [3.0, 0.0, 0.0, 4.0], rtol=0, atol=1e-15)

    assert clip_global_norm(np.zeros(2), 5.0) == 0.0  # zero gradients stay zero


def test_clip_global_norm_keeps_direction_when_squared_norm_overflows():
    g = np.array([1e200, -3e200, 0.5])
    with np.errstate(over="ignore"):  # np.dot(g, g) overflows
        norm = clip_global_norm(g, 5.0)
    assert abs(norm - np.sqrt(10.0) * 1e200) <= 1e-12 * norm
    assert abs(np.linalg.norm(g) - 5.0) <= 1e-12 * 5.0
    direction = np.array([1.0, -3.0, 0.5e-200]) / np.sqrt(10.0)
    assert np.allclose(g / 5.0, direction, rtol=1e-12, atol=0)

    g = np.full(4, 1e308)  # the norm itself is beyond the float range
    with np.errstate(over="ignore"):
        assert clip_global_norm(g, 5.0) == np.inf
    assert np.allclose(g, np.full(4, 2.5), rtol=1e-12, atol=0)


def test_clip_global_norm_lets_non_finite_gradients_diverge():
    for bad in (np.inf, np.nan):
        g = np.array([1.0, bad, 2.0])
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(clip_global_norm(g, 5.0))
        assert not np.isfinite(g).all()
