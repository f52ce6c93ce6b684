"""Model-component oracles: hand-worked cell updates, normalization,
attention behavior, and decoding determinism."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from vecphon import model as md
from vecphon.errors import DataError
from vecphon.model import Variant, WordPass, emit, init_params, lstm_step
from vecphon.training import mean_dev_loss
from vecphon.vocab import Alphabet, LexiconEntry

ALL_VARIANTS = [Variant.POS_INDEPENDENT, Variant.POS_DEPENDENT, Variant.JOINT]


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
        assert md.spell_and_score(variant, [[0]], None, params, alphabet, max_len=10)[0][0] == ()


def test_decode_memory_follows_steps_taken_not_max_len():
    # every word ends at step one, so a length cap of 10^6 must cost no
    # more than one of 15: no (words, max_len) block may be allocated
    alphabet, params, _ = tiny_setup(n_morphs=4)
    params.morph_emb[:] = params.morph_emb[0]
    rig_eos_at_step_one(params, alphabet)
    words = [[0], [2], [1, 3], [3, 0, 1]]
    for variant in ALL_VARIANTS:
        short = md.spell_and_score(variant, words, None, params, alphabet, max_len=15)[0]
        tracemalloc.start()
        try:
            huge = md.spell_and_score(variant, words, None, params, alphabet, max_len=10**6)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert huge == short == [()] * 4, variant
        assert peak < 4 * 2**20, (variant, peak)


def test_greedy_decode_deterministic_and_capped():
    alphabet, params, _ = tiny_setup(seed=14)
    for variant in ALL_VARIANTS:
        a = md.spell_and_score(variant, [[0, 2]], None, params, alphabet, max_len=8)[0][0]
        b = md.spell_and_score(variant, [[0, 2]], None, params, alphabet, max_len=8)[0][0]
        assert a == b
        assert len(a) <= 8
    with pytest.raises(DataError):
        md.spell_and_score(Variant.JOINT, [[0]], None, params, alphabet, max_len=0)


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
            md.spell_and_score(variant, [[0], []], None, params, alphabet, 5)
        with pytest.raises(DataError, match="at least one morpheme"):
            md.spell_and_score(variant, [()], [(0,)], params, alphabet)


def test_default_max_len():
    entries = [LexiconEntry((0,), (0,) * 7), LexiconEntry((0,), (0, 1))]
    assert md.default_max_len(entries) == 19
    assert md.default_max_len([]) == 7


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
    for variant in ALL_VARIANTS:
        spelled = md.spell_and_score(variant, morphemes, None, params, alphabet, 5)[0]
        assert spelled == [reference_decode(variant, m, params, alphabet, 5) for m in morphemes]
        assert spelled == [md.spell_and_score(variant, [m], None, params, alphabet, 5)[0][0]
                           for m in morphemes]
        assert {0, 5} < {len(s) for s in spelled}, variant
        assert md.spell_and_score(variant, morphemes, None, params, alphabet, 5)[0] == spelled

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
