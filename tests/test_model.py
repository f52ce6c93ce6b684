"""Model-component oracles: hand-worked cell updates, normalization,
attention behavior, and decoding determinism."""

from __future__ import annotations

import numpy as np
import pytest

from vecphon import autodiff as ad
from vecphon import model as md
from vecphon.autodiff import Tape, Tensor
from vecphon.errors import DataError
from vecphon.model import (IncrementalDecoder, ModelParams, Variant,
                           attention_weights, emission,
                           greedy_decode, init_params, joint_emission,
                           lstm_step, uf_pos_dependent_mean,
                           uf_pos_independent_mean, word_logprob)
from vecphon.vocab import Alphabet, LexiconEntry

ALL_VARIANTS = [Variant.POS_INDEPENDENT, Variant.POS_DEPENDENT, Variant.JOINT]


def tiny_setup(seed=0, d=4, n_chars=3, n_morphs=3, weight_scale=1.0):
    rng = np.random.default_rng(seed)
    alphabet = Alphabet([chr(ord("a") + i) for i in range(n_chars)])
    params = init_params(rng, n_morphs, alphabet, d)
    if weight_scale != 1.0:
        for t in params.tensors():
            t.data *= weight_scale
    return alphabet, params, rng


# ---------------------------------------------------------------------------
# LSTM cell

def test_lstm_zero_parameters_give_zero_hidden():
    alphabet, params, _ = tiny_setup()
    for t in (params.lstm_wx, params.lstm_wh, params.lstm_b):
        t.data[:] = 0.0
    x = Tensor(np.ones(params.d))
    h, c = lstm_step(params, x, Tensor(np.zeros(params.d)), Tensor(np.zeros(params.d)))
    assert np.all(h.data == 0.0)  # o=0.5, tanh(c)=tanh(0.5*0)=0


def test_lstm_matches_hand_computed_update():
    # 3-unit cell, hand-set parameters, one step from a nonzero state
    d = 3
    rng = np.random.default_rng(42)
    alphabet = Alphabet("ab")
    params = init_params(rng, 2, alphabet, d)
    wx = rng.normal(size=(4 * d, d))
    wh = rng.normal(size=(4 * d, d))
    b = rng.normal(size=4 * d)
    params.lstm_wx.data[:] = wx
    params.lstm_wh.data[:] = wh
    params.lstm_b.data[:] = b
    x = rng.normal(size=d)
    h0 = rng.normal(size=d)
    c0 = rng.normal(size=d)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = wx @ x + wh @ h0 + b
    i, f, o, g = sig(z[0:3]), sig(z[3:6]), sig(z[6:9]), np.tanh(z[9:12])
    c1 = f * c0 + i * g
    h1 = o * np.tanh(c1)

    h, c = lstm_step(params, Tensor(x), Tensor(h0), Tensor(c0))
    assert np.allclose(h.data, h1, atol=1e-12)
    assert np.allclose(c.data, c1, atol=1e-12)


def test_lstm_state_depends_on_input_order():
    alphabet, params, _ = tiny_setup(seed=7)

    def run(seq):
        h = Tensor(np.zeros(params.d))
        c = Tensor(np.zeros(params.d))
        for sym in seq:
            x = ad.lookup(params.char_emb, sym)
            h, c = lstm_step(params, x, h, c)
        return h.data

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
    params.readout_w.data[:] = W
    params.readout_v.data[:] = V
    h = np.array([0.3, -0.7])
    u = np.array([1.1, 0.4])
    logits = V @ np.tanh(W @ np.concatenate([h, u]))
    expected = logits - np.log(np.exp(logits).sum())
    got = emission(Tensor(h), Tensor(u), params).data
    assert np.max(np.abs(got - expected)) < 1e-10


def test_emission_zero_v_is_uniform():
    alphabet, params, _ = tiny_setup(n_chars=4)
    params.readout_v.data[:] = 0.0
    out = emission(Tensor(np.ones(params.d)), Tensor(np.ones(params.d)), params).data
    assert np.allclose(out, -np.log(alphabet.out_size), atol=1e-12)


def test_attention_zero_t_uniform_and_single_morpheme():
    alphabet, params, rng = tiny_setup(seed=5)
    m = Tensor(rng.normal(size=(3, params.d)))
    h = Tensor(rng.normal(size=params.d))
    params.attn_t.data[:] = 0.0
    alpha = attention_weights(h, m, params.attn_t).data
    assert np.allclose(alpha, 1.0 / 3.0, atol=1e-12)
    single = attention_weights(h, Tensor(rng.normal(size=(1, params.d))), params.attn_t)
    assert np.allclose(single.data, [1.0])


def test_attention_simplex_and_temperature_sharpening():
    alphabet, params, rng = tiny_setup(seed=6)
    for _ in range(20):
        m = Tensor(rng.normal(size=(4, params.d)))
        h = Tensor(rng.normal(size=params.d))
        t = Tensor(rng.normal(size=(params.d, params.d)))
        alpha = attention_weights(h, m, t).data
        assert abs(alpha.sum() - 1.0) < 1e-10 and np.all(alpha >= 0)
        top = int(np.argmax(alpha))
        for scale in (2.0, 5.0):
            sharper = attention_weights(h, m, Tensor(t.data * scale)).data
            assert int(np.argmax(sharper)) == top
            assert sharper[top] >= alpha[top] - 1e-12


def test_uf_means():
    rng = np.random.default_rng(8)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    mean = uf_pos_independent_mean(Tensor(np.stack([e1, e2]))).data
    assert np.allclose(mean, [0.5, 0.5])
    row = rng.normal(size=4)
    assert np.allclose(uf_pos_independent_mean(Tensor(row[None, :])).data, row)
    same = np.stack([row, row])
    assert np.allclose(uf_pos_independent_mean(Tensor(same)).data, row)


def test_uf_pos_dependent_in_convex_hull():
    alphabet, params, rng = tiny_setup(seed=9)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        m = Tensor(rng.normal(size=(k, params.d)))
        h = Tensor(rng.normal(size=params.d))
        t = Tensor(rng.normal(size=(params.d, params.d)))
        mean = uf_pos_dependent_mean(h, m, t).data
        alpha = attention_weights(h, m, t).data
        assert np.allclose(mean, alpha @ m.data, atol=1e-12)
        # convex combination: inside the coordinate-wise envelope
        assert np.all(mean <= m.data.max(axis=0) + 1e-12)
        assert np.all(mean >= m.data.min(axis=0) - 1e-12)


def test_joint_single_morpheme_equals_plain_emission():
    alphabet, params, rng = tiny_setup(seed=10)
    m = Tensor(rng.normal(size=(1, params.d)))
    h = Tensor(rng.normal(size=params.d))
    joint = joint_emission(h, m, params).data
    plain = emission(h, ad.lookup(m, 0), params).data
    assert np.allclose(joint, plain, atol=1e-12)


def test_joint_zero_t_two_morphemes_averages_components():
    alphabet, params, rng = tiny_setup(seed=11)
    params.attn_t.data[:] = 0.0
    m = Tensor(rng.normal(size=(2, params.d)))
    h = Tensor(rng.normal(size=params.d))
    mix = np.exp(joint_emission(h, m, params).data)
    p0 = np.exp(emission(h, ad.lookup(m, 0), params).data)
    p1 = np.exp(emission(h, ad.lookup(m, 1), params).data)
    assert np.allclose(mix, 0.5 * p0 + 0.5 * p1, atol=1e-12)


def test_per_step_distributions_normalize_all_variants():
    for seed in range(5):
        alphabet, params, rng = tiny_setup(seed=seed, n_chars=3, n_morphs=4)
        morphemes = list(rng.integers(0, 4, size=int(rng.integers(1, 4))))
        for variant in ALL_VARIANTS:
            dec = IncrementalDecoder(params, variant, morphemes)
            state = dec.start_state()
            prev = alphabet.bos_id
            for sym in [0, 1, 2]:
                logdist, state = dec.step(state, prev)
                assert abs(np.exp(logdist.data).sum() - 1.0) < 1e-10
                prev = sym


def test_morpheme_order_invariance():
    # no positional encoding anywhere: UF means and mixtures are
    # order-unaware in the morpheme sequence
    alphabet, params, rng = tiny_setup(seed=12, n_morphs=4)
    entry_ab = LexiconEntry(morphemes=(1, 3), form=(0, 1, 2))
    entry_ba = LexiconEntry(morphemes=(3, 1), form=(0, 1, 2))
    for variant in ALL_VARIANTS:
        lp_ab = word_logprob(variant, entry_ab, params, alphabet).item()
        lp_ba = word_logprob(variant, entry_ba, params, alphabet).item()
        assert abs(lp_ab - lp_ba) < 1e-12


def test_word_logprob_uniform_emission_closed_form():
    alphabet, params, _ = tiny_setup(n_chars=3)
    params.readout_v.data[:] = 0.0
    entry = LexiconEntry(morphemes=(0,), form=(0, 2, 1, 1))
    for variant in ALL_VARIANTS:
        lp = word_logprob(variant, entry, params, alphabet).item()
        assert abs(lp + 5 * np.log(4)) < 1e-10  # (|s|+1) * ln(|sigma|+1)


def test_word_logprob_sampling_changes_score_but_mean_pinned():
    alphabet, params, rng = tiny_setup(seed=13)
    entry = LexiconEntry(morphemes=(0, 1), form=(0, 1))
    base = word_logprob(Variant.POS_INDEPENDENT, entry, params, alphabet).item()
    pinned = word_logprob(Variant.POS_INDEPENDENT, entry, params, alphabet,
                          eps=lambda: np.zeros(params.d)).item()
    assert base == pinned
    noisy = word_logprob(Variant.POS_INDEPENDENT, entry, params, alphabet,
                         eps=lambda: rng.normal(size=params.d)).item()
    assert noisy != base


def test_greedy_decode_eos_rigged_gives_empty():
    alphabet, params, _ = tiny_setup()
    # first decoder state and UF for the single-morpheme word
    x = ad.lookup(params.char_emb, alphabet.bos_id)
    h1, _ = lstm_step(params, x, Tensor(np.zeros(params.d)), Tensor(np.zeros(params.d)))
    u = params.morph_emb.data[0]
    feat = np.tanh(params.readout_w.data @ np.concatenate([h1.data, u]))
    # point the EOS readout row along the feature vector: its logit is
    # |feat|^2 > 0 while every other logit is 0, so EOS wins at step one
    params.readout_v.data[:] = 0.0
    params.readout_v.data[alphabet.eos_out, :] = feat
    for variant in ALL_VARIANTS:
        assert greedy_decode(variant, [0], params, alphabet, max_len=10) == ()


def test_greedy_decode_deterministic_and_capped():
    alphabet, params, _ = tiny_setup(seed=14)
    for variant in ALL_VARIANTS:
        a = greedy_decode(variant, [0, 2], params, alphabet, max_len=8)
        b = greedy_decode(variant, [0, 2], params, alphabet, max_len=8)
        assert a == b
        assert len(a) <= 8
    with pytest.raises(DataError):
        greedy_decode(Variant.JOINT, [0], params, alphabet, max_len=0)


def test_morpheme_gradient_sparsity():
    # only embeddings of morphemes present in the word get gradient
    alphabet, params, _ = tiny_setup(seed=16, n_morphs=5)
    entry = LexiconEntry(morphemes=(1, 3), form=(0, 1))
    with Tape() as tape:
        loss = ad.mul(word_logprob(Variant.POS_INDEPENDENT, entry, params, alphabet), -1.0)
        tape.backward(loss)
    g = params.morph_emb.grad
    assert np.any(g[1] != 0.0) and np.any(g[3] != 0.0)
    assert np.all(g[[0, 2, 4]] == 0.0)


def test_embed_rows_stack_in_order():
    alphabet, params, _ = tiny_setup(seed=17, n_morphs=4)
    dec = IncrementalDecoder(params, Variant.JOINT, [2, 0])
    assert np.allclose(dec.m_rows.data[0], params.morph_emb.data[2])
    assert np.allclose(dec.m_rows.data[1], params.morph_emb.data[0])


def test_default_max_len():
    entries = [LexiconEntry((0,), (0,) * 7), LexiconEntry((0,), (0, 1))]
    assert md.default_max_len(entries) == 19
    assert md.default_max_len([]) == 7


def test_variant_tags():
    assert Variant.from_tag("pos-indep") is Variant.POS_INDEPENDENT
    assert Variant.from_tag("pos-dep") is Variant.POS_DEPENDENT
    assert Variant.from_tag("joint") is Variant.JOINT
    with pytest.raises(ValueError):
        Variant.from_tag("mystery")
