"""Model-component oracles: hand-worked cell updates, normalization,
attention behavior, and decoding determinism; the normalizers and
dropout.

The model's hand-derived backward pass is compared against central
finite differences of its own forward pass.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from vecphon import model as md
from vecphon.errors import ConfigError, DataError, NumericError
from vecphon.model import Variant, WordPass, emit, init_params, lstm_step
from vecphon.training import mean_dev_loss
from vecphon.vocab import Alphabet, LexiconEntry

ALL_VARIANTS = [Variant.POS_INDEPENDENT, Variant.POS_DEPENDENT, Variant.JOINT]
STEP = 1e-5
RTOL = 1e-4
ATOL = 1e-7


def tiny_setup(seed=0, d=4, n_chars=3, n_morphs=3, weight_scale=1.0):
    rng = np.random.default_rng(seed)
    alphabet = Alphabet([chr(ord("a") + i) for i in range(n_chars)])
    params = init_params(rng, n_morphs, alphabet, d)
    if weight_scale != 1.0:
        params.flat *= weight_scale
    return alphabet, params, rng


def input_share(params, x):
    """The input's share of the gate pre-activations, W_x x + b."""
    return params.lstm_wx @ x + params.lstm_b


def emit_rows(params, variant, h, m, noise=None):
    """``emit`` for decoder states h given morpheme rows m (k, d), with the
    readout shares and attention keys built from the rows as WordPass
    builds them; ``noise`` is added to the underlying form."""
    w_h, w_u = params.readout_w[:, :params.d], params.readout_w[:, params.d:]
    return emit(params, variant, h, h @ w_h.T, m @ params.attn_t.T, m @ w_u.T,
                None if noise is None else noise @ w_u.T)


def oracle(params, h, u):
    """The unfactored readout of one state h and underlying form u:
    log_softmax(V tanh(W [h; u]))."""
    return md.log_softmax(params.readout_v @ np.tanh(params.readout_w @ np.concatenate([h, u])))


def emission(h, u, params):
    """The model's readout at underlying form u: pos-indep over one row."""
    return emit_rows(params, Variant.POS_INDEPENDENT, h, u[None]).logdist


def attention_weights(params, h, m, attn_t):
    """pos-dep's attention weights over rows m, with attn_t written into params."""
    params.attn_t[:] = attn_t
    return np.exp(emit_rows(params, Variant.POS_DEPENDENT, h, m).log_alpha)


def assert_close(a, b, rtol=RTOL, atol=ATOL):
    a = np.asarray(a)
    b = np.asarray(b)
    err = np.abs(a - b)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    worst = np.max(err - tol)
    assert np.all(err <= tol), f"gradient mismatch, worst excess {worst:.3e}"


def word_setup(seed, d=3, n_chars=4, n_morphs=4):
    """``tiny_setup`` at the gradient checks' sizes, without its rng."""
    return tiny_setup(seed, d, n_chars, n_morphs)[:2]


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
# LSTM cell

def test_lstm_zero_parameters_give_zero_hidden():
    alphabet, params, _ = tiny_setup()
    for t in (params.lstm_wx, params.lstm_wh, params.lstm_b):
        t[:] = 0.0
    x = np.ones(params.d)
    h, c, _ = lstm_step(params, input_share(params, x), np.zeros(params.d), np.zeros(params.d))
    assert np.all(h == 0.0)  # o=0.5, tanh(c)=tanh(0.5*0)=0


def test_lstm_matches_hand_computed_update():
    # 3-unit cell, hand-set parameters, one step from a nonzero state
    d = 3
    rng = np.random.default_rng(42)
    alphabet = Alphabet("ab")
    params = init_params(rng, 2, alphabet, d)
    wx = rng.normal(size=(4 * d, d))
    wh = rng.normal(size=(4 * d, d))
    b = rng.normal(size=4 * d)
    params.lstm_wx[:] = wx
    params.lstm_wh[:] = wh
    params.lstm_b[:] = b
    x = rng.normal(size=d)
    h0 = rng.normal(size=d)
    c0 = rng.normal(size=d)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = wx @ x + wh @ h0 + b
    i, f, o, g = sig(z[0:3]), sig(z[3:6]), sig(z[6:9]), np.tanh(z[9:12])
    c1 = f * c0 + i * g
    h1 = o * np.tanh(c1)

    h, c, _ = lstm_step(params, input_share(params, x), h0, c0)
    assert np.allclose(h, h1, atol=1e-12)
    assert np.allclose(c, c1, atol=1e-12)


def test_lstm_state_depends_on_input_order():
    alphabet, params, _ = tiny_setup(seed=7)

    def run(seq):
        h = np.zeros(params.d)
        c = np.zeros(params.d)
        for sym in seq:
            h, c, _ = lstm_step(params, input_share(params, params.char_emb[sym]), h, c)
        return h

    assert not np.allclose(run([0, 1]), run([1, 0]))


# ---------------------------------------------------------------------------
# emission and attention

def test_emission_hand_oracle():
    d = 2
    alphabet = Alphabet("ab")  # output space of 3 (a, b, EOS)
    rng = np.random.default_rng(3)
    params = init_params(rng, 1, alphabet, d)
    W = np.arange(16, dtype=float).reshape(4, 4) * 0.1
    V = np.array([[0.2, -0.1, 0.05, 0.3],
                  [-0.4, 0.2, 0.1, -0.2],
                  [0.0, 0.5, -0.3, 0.1]])
    params.readout_w[:] = W
    params.readout_v[:] = V
    h = np.array([0.3, -0.7])
    u = np.array([1.1, 0.4])
    logits = V @ np.tanh(W @ np.concatenate([h, u]))
    expected = logits - np.log(np.exp(logits).sum())
    got = emission(h, u, params)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_emission_zero_v_is_uniform():
    alphabet, params, _ = tiny_setup(n_chars=4)
    params.readout_v[:] = 0.0
    out = emission(np.ones(params.d), np.ones(params.d), params)
    assert np.allclose(out, -np.log(alphabet.out_size), atol=1e-12)


def test_attention_zero_t_uniform_and_single_morpheme():
    alphabet, params, rng = tiny_setup(seed=5)
    m = rng.normal(size=(3, params.d))
    h = rng.normal(size=params.d)
    params.attn_t[:] = 0.0
    alpha = attention_weights(params, h, m, params.attn_t)
    assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)
    single = attention_weights(params, h, rng.normal(size=(1, params.d)), params.attn_t)
    assert np.allclose(single, [1.0])


def test_attention_simplex_and_temperature_sharpening():
    alphabet, params, rng = tiny_setup(seed=6)
    for _ in range(20):
        m = rng.normal(size=(4, params.d))
        h = rng.normal(size=params.d)
        t = rng.normal(size=(params.d, params.d))
        alpha = attention_weights(params, h, m, t)
        assert abs(alpha.sum() - 1.0) < 1e-10 and np.all(alpha >= 0)
        top = int(np.argmax(alpha))
        for scale in (2.0, 5.0):
            sharper = attention_weights(params, h, m, t * scale)
            assert int(np.argmax(sharper)) == top
            assert sharper[top] >= alpha[top] - 1e-12


def test_uf_means():
    def reads_mean(m, mean):
        # pos-indep reads u = the mean of the morpheme rows
        d = m.shape[1]
        _, params, _ = tiny_setup(d=d)
        h = np.zeros(d)
        got = emit_rows(params, Variant.POS_INDEPENDENT, h, m).logdist
        return np.allclose(got, oracle(params, h, mean), rtol=0, atol=1e-12)

    rng = np.random.default_rng(8)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert reads_mean(np.stack([e1, e2]), [0.5, 0.5])
    assert not reads_mean(np.stack([e1, e2]), e1)
    row = rng.normal(size=4)
    assert reads_mean(row[None, :], row)
    same = np.stack([row, row])
    assert reads_mean(same, row)


def test_uf_pos_dependent_in_convex_hull():
    alphabet, params, rng = tiny_setup(seed=9)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        m = rng.normal(size=(k, params.d))
        h = rng.normal(size=params.d)
        params.attn_t[:] = rng.normal(size=(params.d, params.d))
        # pos-dep reads u = alpha @ m
        got = emit_rows(params, Variant.POS_DEPENDENT, h, m).logdist
        alpha = attention_weights(params, h, m, params.attn_t)
        mean = alpha @ m
        assert np.allclose(got, oracle(params, h, mean), rtol=0, atol=1e-12)
        # convex combination: inside the coordinate-wise envelope
        assert np.all(mean <= m.max(axis=0) + 1e-12)
        assert np.all(mean >= m.min(axis=0) - 1e-12)


def test_joint_single_morpheme_equals_plain_emission():
    alphabet, params, rng = tiny_setup(seed=10)
    m = rng.normal(size=(1, params.d))
    h = rng.normal(size=params.d)
    joint = emit_rows(params, Variant.JOINT, h, m).logdist
    plain = oracle(params, h, m[0])
    assert np.allclose(joint, plain, atol=1e-12)


def test_joint_zero_t_two_morphemes_averages_components():
    alphabet, params, rng = tiny_setup(seed=11)
    params.attn_t[:] = 0.0
    m = rng.normal(size=(2, params.d))
    h = rng.normal(size=params.d)
    mix = np.exp(emit_rows(params, Variant.JOINT, h, m).logdist)
    p0 = np.exp(oracle(params, h, m[0]))
    p1 = np.exp(oracle(params, h, m[1]))
    assert np.allclose(mix, 0.5 * p0 + 0.5 * p1, atol=1e-12)


def test_noise_enters_the_underlying_form():
    # emit takes the noise as its readout share eps W_u^T: the same as the
    # unfactored readout at u + eps, one eps per word for pos-indep and
    # one per state for pos-dep
    alphabet, params, rng = tiny_setup(seed=19, weight_scale=3.0)
    m = rng.normal(size=(3, params.d))
    h = rng.normal(size=(4, params.d))
    eps = rng.normal(size=(4, params.d))
    pi = emit_rows(params, Variant.POS_INDEPENDENT, h, m, eps[0]).logdist
    out = emit_rows(params, Variant.POS_DEPENDENT, h, m, eps)
    alpha = np.exp(out.log_alpha)
    for t in range(4):
        assert np.allclose(pi[t], oracle(params, h[t], m.mean(axis=0) + eps[0]),
                           rtol=0, atol=1e-12)
        assert np.allclose(out.logdist[t], oracle(params, h[t], alpha[t] @ m + eps[t]),
                           rtol=0, atol=1e-12)
    assert not np.allclose(pi, emit_rows(params, Variant.POS_INDEPENDENT, h, m).logdist)


def test_per_step_distributions_normalize_all_variants():
    for seed in range(5):
        alphabet, params, rng = tiny_setup(seed=seed, n_chars=3, n_morphs=4)
        morphemes = list(rng.integers(0, 4, size=int(rng.integers(1, 4))))
        for variant in ALL_VARIANTS:
            h = c = np.zeros(params.d)
            prev = alphabet.bos_id
            for sym in [0, 1, 2]:
                h, c, _ = lstm_step(params, input_share(params, params.char_emb[prev]), h, c)
                logdist = emit_rows(params, variant, h, params.morph_emb[morphemes]).logdist
                assert abs(np.exp(logdist).sum() - 1.0) < 1e-10
                prev = sym


def test_morpheme_order_invariance():
    # no positional encoding anywhere: UF means and mixtures are
    # order-unaware in the morpheme sequence
    alphabet, params, rng = tiny_setup(seed=12, n_morphs=4)
    entry_ab = LexiconEntry(morphemes=(1, 3), form=(0, 1, 2))
    entry_ba = LexiconEntry(morphemes=(3, 1), form=(0, 1, 2))
    for variant in ALL_VARIANTS:
        lp_ab = WordPass(variant, entry_ab, params, alphabet).logprob.item()
        lp_ba = WordPass(variant, entry_ba, params, alphabet).logprob.item()
        assert abs(lp_ab - lp_ba) < 1e-12


def test_word_logprob_uniform_emission_closed_form():
    alphabet, params, _ = tiny_setup(n_chars=3)
    params.readout_v[:] = 0.0
    entry = LexiconEntry(morphemes=(0,), form=(0, 2, 1, 1))
    for variant in ALL_VARIANTS:
        lp = WordPass(variant, entry, params, alphabet).logprob.item()
        assert abs(lp + 5 * np.log(4)) < 1e-10  # (|s|+1) * ln(|sigma|+1)


def test_word_logprob_sampling_changes_score_but_mean_pinned():
    alphabet, params, rng = tiny_setup(seed=13)
    entry = LexiconEntry(morphemes=(0, 1), form=(0, 1))
    base = WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet).logprob.item()
    pinned = WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet,
                      eps=lambda: np.zeros(params.d)).logprob.item()
    assert base == pinned
    noisy = WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet,
                     eps=lambda: rng.normal(size=params.d)).logprob.item()
    assert noisy != base


def rig_eos_at_step_one(params, alphabet):
    """Make the word of morpheme 0 end at step one, and with it every word
    whose morpheme rows all equal row 0."""
    # first decoder state and UF for the single-morpheme word
    x = params.char_emb[alphabet.bos_id]
    h1, _, _ = lstm_step(params, input_share(params, x), np.zeros(params.d), np.zeros(params.d))
    u = params.morph_emb[0]
    feat = np.tanh(params.readout_w @ np.concatenate([h1, u]))
    # point the EOS readout row along the feature vector: its logit is
    # |feat|^2 > 0 while every other logit is 0, so EOS wins at step one
    params.readout_v[:] = 0.0
    params.readout_v[alphabet.eos_out, :] = feat


def test_greedy_decode_eos_rigged_gives_empty():
    alphabet, params, _ = tiny_setup()
    rig_eos_at_step_one(params, alphabet)
    for variant in ALL_VARIANTS:
        assert md.spell_and_score(variant, [[0]], [None], params, alphabet, max_len=10)[0][0] == ()


def test_decode_memory_follows_steps_taken_not_max_len():
    # every word ends at step one, so a length cap of 10^6 must cost no
    # more than one of 15: no (words, max_len) block may be allocated
    alphabet, params, _ = tiny_setup(n_morphs=4)
    params.morph_emb[:] = params.morph_emb[0]
    rig_eos_at_step_one(params, alphabet)
    words, no_gold = [[0], [2], [1, 3], [3, 0, 1]], [None] * 4
    for variant in ALL_VARIANTS:
        short = md.spell_and_score(variant, words, no_gold, params, alphabet, max_len=15)[0]
        tracemalloc.start()
        try:
            huge = md.spell_and_score(variant, words, no_gold, params, alphabet, max_len=10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert huge == short == [()] * 4, variant
        assert peak < 4 * 2**20, (variant, peak)


def test_greedy_decode_deterministic_and_capped():
    alphabet, params, _ = tiny_setup(seed=14)
    for variant in ALL_VARIANTS:
        a = md.spell_and_score(variant, [[0, 2]], [None], params, alphabet, max_len=8)[0][0]
        b = md.spell_and_score(variant, [[0, 2]], [None], params, alphabet, max_len=8)[0][0]
        assert a == b
        assert len(a) <= 8
    with pytest.raises(DataError):
        md.spell_and_score(Variant.JOINT, [[0]], [None], params, alphabet, max_len=0)


def test_morpheme_gradient_sparsity():
    # only embeddings of morphemes present in the word get gradient
    alphabet, params, _ = tiny_setup(seed=16, n_morphs=5)
    entry = LexiconEntry(morphemes=(1, 3), form=(0, 1))
    grads = params.like()
    WordPass(Variant.POS_INDEPENDENT, entry, params, alphabet).nll_backward(grads)
    g = grads.morph_emb
    assert np.any(g[1] != 0.0) and np.any(g[3] != 0.0)
    assert np.all(g[[0, 2, 4]] == 0.0)


def test_empty_morpheme_sequence_is_data_error():
    alphabet, params, _ = tiny_setup(seed=17)
    for variant in ALL_VARIANTS:
        with pytest.raises(DataError, match="at least one morpheme"):
            md.spell_and_score(variant, [[0], []], [None] * 2, params, alphabet, 5)
        with pytest.raises(DataError, match="at least one morpheme"):
            md.spell_and_score(variant, [()], [(0,)], params, alphabet)


def test_variant_tags():
    assert Variant("pos-indep") is Variant.POS_INDEPENDENT
    assert Variant("pos-dep") is Variant.POS_DEPENDENT
    assert Variant("joint") is Variant.JOINT
    with pytest.raises(ValueError):
        Variant("mystery")


# ---------------------------------------------------------------------------
# reference values and the two decoding paths

REF_ALPHABET = Alphabet("abcd")
REF_WORDS = (LexiconEntry((0, 1), REF_ALPHABET.encode("bca")),
             LexiconEntry((2,), REF_ALPHABET.encode("dd")),
             LexiconEntry((3, 0, 1), REF_ALPHABET.encode("abcab")))

# WordPass.logprob of REF_WORDS under init_params(default_rng(1000 + d), 4
# morphemes, REF_ALPHABET, d), as computed by the per-character
# tape-based implementation this model replaced: (noise-free, with the
# eps sequence from default_rng(2000 + d).standard_normal((8, d)))
REF_LOGPROBS = {
    (6, "pos-indep"): ((-6.3396372440426365, -4.870454086427662, -9.539329765618303),
                       (-6.259179063892558, -5.223219548902175, -9.428590952059187)),
    (6, "pos-dep"): ((-6.339251726425444, -4.870454086427662, -9.539574111127324),
                     (-6.386108679322153, -4.905545823989801, -9.498402062268879)),
    (6, "joint"): ((-6.338936195759937, -4.870454086427662, -9.54636754376398),
                   (-6.338936195759937, -4.870454086427662, -9.54636754376398)),
    (32, "pos-indep"): ((-6.437563605440692, -4.972244827043788, -9.790924688448122),
                        (-6.282535105646981, -4.660933053366592, -9.879931472061003)),
    (32, "pos-dep"): ((-6.4796789697960975, -4.972244827043788, -9.739400394863981),
                      (-7.532086873016077, -4.579241936326877, -9.330658379974231)),
    (32, "joint"): ((-6.571598559585892, -4.972244827043788, -9.822764453012589),
                    (-6.571598559585892, -4.972244827043788, -9.822764453012589)),
}


def test_word_logprob_matches_reference_values():
    for (d, tag), (mean_ref, noisy_ref) in REF_LOGPROBS.items():
        params = init_params(np.random.default_rng(1000 + d), 4, REF_ALPHABET, d)
        variant = Variant(tag)
        for entry, want_mean, want_noisy in zip(REF_WORDS, mean_ref, noisy_ref):
            draws = iter(np.random.default_rng(2000 + d).standard_normal((8, d)))
            got_mean = WordPass(variant, entry, params, REF_ALPHABET).logprob
            got_noisy = WordPass(variant, entry, params, REF_ALPHABET,
                                 eps=lambda: next(draws)).logprob
            assert abs(got_mean - want_mean) <= 1e-10 * abs(want_mean), (d, tag, entry)
            assert abs(got_noisy - want_noisy) <= 1e-10 * abs(want_noisy), (d, tag, entry)


def test_decoder_steps_match_teacher_forced_pass():
    # greedy decoding steps one row at a time; scoring runs all rows at
    # once: along a gold form both give the same distributions
    alphabet, params, rng = tiny_setup(seed=18, d=5, n_chars=4, n_morphs=4)
    params.lstm_b[:] = rng.normal(size=params.lstm_b.shape)  # init leaves it 0
    entry = LexiconEntry(morphemes=(3, 0, 1), form=(2, 0, 0, 3, 1))
    for variant in ALL_VARIANTS:
        scored = WordPass(variant, entry, params, alphabet).out.logdist
        m_rows = params.morph_emb[list(entry.morphemes)]
        h = c = np.zeros(params.d)
        prev = alphabet.bos_id
        for t, sym in enumerate(entry.form + (None,)):
            h, c, _ = lstm_step(params, input_share(params, params.char_emb[prev]), h, c)
            logdist = emit_rows(params, variant, h, m_rows).logdist
            assert np.max(np.abs(logdist - scored[t])) < 1e-12, (variant, t)
            prev = sym


# ---------------------------------------------------------------------------
# lockstep inference against the per-word paths

def reference_decode(variant, morphemes, params, alphabet, max_len):
    """Per-word greedy decoding from the one-row building blocks."""
    m_rows = params.morph_emb[list(morphemes)]
    h = c = np.zeros(params.d)
    prev, out = alphabet.bos_id, []
    while len(out) < max_len:
        h, c, _ = lstm_step(params, input_share(params, params.char_emb[prev]), h, c)
        prev = int(np.argmax(emit_rows(params, variant, h, m_rows).logdist))
        if prev == alphabet.eos_out:
            break
        out.append(prev)
    return tuple(out)


def test_lockstep_inference_matches_per_word():
    # 1-3 morphemes and 0-6 symbols per word, in input order: groups of
    # one word, groups of more than BATCH_WORDS, words that reach the
    # length cap without EOS, and words that share a gold prefix
    alphabet, params, rng = tiny_setup(seed=24, d=6, n_chars=3, n_morphs=5, weight_scale=3.0)
    params.lstm_b[:] = rng.normal(size=params.lstm_b.shape)
    words = [LexiconEntry(tuple(rng.integers(0, 5, rng.integers(1, 4)).tolist()),
                          tuple(rng.integers(0, 3, rng.integers(0, 7)).tolist()))
             for _ in range(130)]
    words[40:40] = [LexiconEntry(tuple(rng.integers(0, 5, 2).tolist()),
                                 tuple(rng.integers(0, 3, 3).tolist())) for _ in range(70)]
    words += [LexiconEntry(tuple(rng.integers(0, 5, 2).tolist()),
                           (2, 0) + tuple(rng.integers(0, 3, rng.integers(0, 4)).tolist()))
              for _ in range(40)]
    assert sum((len(w.morphemes), len(w.form)) == (2, 3) for w in words) > md.BATCH_WORDS
    morphemes, forms = [w.morphemes for w in words], [w.form for w in words]
    some_gold = [f if i % 3 else None for i, f in enumerate(forms)]
    no_gold = [None] * len(words)
    for variant in ALL_VARIANTS:
        spelled = md.spell_and_score(variant, morphemes, no_gold, params, alphabet, 5)[0]
        assert spelled == [reference_decode(variant, m, params, alphabet, 5) for m in morphemes]
        assert spelled == [md.spell_and_score(variant, [m], [None], params, alphabet, 5)[0][0]
                           for m in morphemes]
        assert {0, 5} < {len(s) for s in spelled}, variant
        assert md.spell_and_score(variant, morphemes, no_gold, params, alphabet, 5)[0] == spelled

        lps = md.spell_and_score(variant, morphemes, forms, params, alphabet)[1]
        per_word = np.array([WordPass(variant, w, params, alphabet).logprob for w in words])
        assert np.all(np.abs(lps - per_word) <= 1e-10 * np.abs(per_word)), variant
        alone = np.array([md.spell_and_score(variant, [w.morphemes], [w.form], params,
                                             alphabet)[1][0] for w in words])
        assert np.all(np.abs(lps - alone) <= 1e-12 * np.abs(alone)), variant
        assert np.array_equal(md.spell_and_score(variant, morphemes, forms, params,
                                                 alphabet)[1], lps)
        dev = mean_dev_loss(variant, words, params, alphabet)
        assert abs(dev + per_word.mean()) <= 1e-10 * abs(per_word.mean()), variant

        # one pass over words with and without gold spells as the decode-only
        # call and scores as the score-only one
        for golds in (forms, some_gold):
            both, both_lps = md.spell_and_score(variant, morphemes, golds, params, alphabet, 5)
            scored = np.array([f is not None for f in golds])
            assert both == spelled, variant
            assert np.all(np.isnan(both_lps[~scored])), variant
            assert np.all(np.abs(both_lps[scored] - lps[scored])
                          <= 1e-12 * np.abs(lps[scored])), variant


def test_lstm_runs_once_per_distinct_prefix(monkeypatch):
    # 50 words of two morphemes, one lockstep chunk, whose gold forms share
    # a 4-symbol prefix: the LSTM sees one row per distinct prefix, gold or
    # spelled, and the BOS state (the empty prefix) once
    alphabet, params, rng = tiny_setup(seed=25, d=6, n_chars=3, n_morphs=5, weight_scale=3.0)
    words = [LexiconEntry(tuple(rng.integers(0, 5, 2).tolist()),
                          (0, 1, 2, 1) + tuple(rng.integers(0, 3, rng.integers(0, 3)).tolist()))
             for _ in range(50)]
    morphemes, forms = [w.morphemes for w in words], [w.form for w in words]
    rows = []
    step = md.lstm_step

    def counting_step(params, zx, h, c):
        rows.append(len(zx))
        return step(params, zx, h, c)

    monkeypatch.setattr(md, "lstm_step", counting_step)
    gold = {f[:j] for f in forms for j in range(len(f) + 1)}
    diverged = False
    for variant in ALL_VARIANTS:
        rows.clear()
        md.spell_and_score(variant, morphemes, forms, params, alphabet)
        assert sum(rows) == len(gold) < sum(len(f) + 1 for f in forms) // 10, variant
        rows.clear()
        spelled = md.spell_and_score(variant, morphemes, forms, params, alphabet, 6)[0]
        free = {s[:j] for s in spelled for j in range(min(len(s) + 1, 6))}
        assert sum(rows) == len(gold | free), variant
        diverged |= bool(free - gold)
    assert diverged


# ---------------------------------------------------------------------------
# building blocks against hand arithmetic

def test_cell_readout_and_attention_by_hand():
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


def test_logsumexp_matches_naive():
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


def test_logsumexp_grads():
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

def test_embedding_grads_land_on_the_rows_used():
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


def test_word_grads_on_random_words_and_sizes():
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


def test_weight_grads_over_one_or_several_steps_and_morphemes():
    # each weight gradient is one matrix product over the word's rows;
    # check it where those products degenerate (one step, one morpheme,
    # one symbol: inner dimensions of 1) as well as over several of each
    alphabet, params = word_setup(6)
    for morphs, form in (((1,), ()), ((0, 2), ()), ((2,), (3,)), ((3,), (1, 2, 0)),
                         ((0, 1, 2), (2, 2, 1))):
        entry = LexiconEntry(morphs, form)
        for variant in ALL_VARIANTS:
            grads = check_word_grads(variant, entry, params, alphabet,
                                     lambda: pass_kwargs(params, 6))
            if not form:  # one step from the zero state: W_h multiplies only zeros
                assert np.all(grads.lstm_wh == 0.0)
            else:
                assert np.any(grads.lstm_wh != 0.0)


def test_bias_and_uf_grads_sum_over_steps():
    # the LSTM bias is added to every step's input projection, and the
    # pos-indep underlying form to every step's readout input: their
    # gradients sum over the steps
    alphabet, params = word_setup(3)
    entry = LexiconEntry((0, 1), (2, 0, 3, 1))
    for variant in ALL_VARIANTS:
        check_word_grads(variant, entry, params, alphabet,
                         lambda: pass_kwargs(params, 3), names=("lstm_b", "morph_emb"))


def test_grads_through_saturated_gates_and_tanh():
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


def test_readout_grads_split_between_h_and_u():
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


def test_each_step_grads_reach_its_own_input():
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
