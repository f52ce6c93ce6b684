"""Metric oracles: quadratic-DP edit distance reference, closed-form
surprisal, permutation-test enumeration, aggregation arithmetic, PCA
projection and cosine."""

from __future__ import annotations

import numpy as np
import pytest

from vecphon.errors import ConfigError, DataError
from vecphon.evaluation import (EvalReport, cosine, evaluate, levenshtein, mean_sd,
                                paired_permutation_test, pca2, predict, resample_eval)
from vecphon.model import Variant, WordPass, init_params, spell_and_score
from vecphon.seeds import derive_seed
from vecphon.vocab import Alphabet, LexiconEntry, MorphemeVocab


def reference_levenshtein(a, b):
    """Independent full-table DP, the textbook quadratic formulation."""
    n, m = len(a), len(b)
    t = np.zeros((n + 1, m + 1), dtype=int)
    t[:, 0] = np.arange(n + 1)
    t[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            t[i, j] = min(t[i - 1, j] + 1, t[i, j - 1] + 1,
                          t[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(t[n, m])


def test_levenshtein_fixtures():
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert reference_levenshtein("kitten", "sitting") == 3
    assert levenshtein((0, 1, 2), (0, 2)) == 1  # works on index tuples too


def test_levenshtein_against_reference_1000_pairs():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a = "".join(rng.choice(list("abcd"), size=rng.integers(0, 9)))
        b = "".join(rng.choice(list("abcd"), size=rng.integers(0, 9)))
        assert levenshtein(a, b) == reference_levenshtein(a, b)


def test_levenshtein_is_a_metric():
    rng = np.random.default_rng(1)
    words = ["".join(rng.choice(list("ab"), size=rng.integers(0, 7))) for _ in range(60)]
    for _ in range(300):
        x, y, z = rng.choice(words, size=3)
        assert levenshtein(x, y) == levenshtein(y, x)
        assert (levenshtein(x, y) == 0) == (x == y)
        assert levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)


def test_surprisal_uniform_closed_form():
    alphabet = Alphabet("ab")
    params = init_params(np.random.default_rng(2), 2, alphabet, 4)
    params.readout_v[:] = 0.0  # uniform over 3 outputs at every step
    for form in [(0,), (0, 1), (1, 1, 0, 0)]:
        entry = LexiconEntry(morphemes=(0,), form=form)
        for variant in Variant:
            lp = spell_and_score(variant, [entry.morphemes], [entry.form], params, alphabet)[1][0]
            s = -lp / (len(form) + 1)
            assert abs(s - np.log(3)) < 1e-10


def test_surprisal_independent_of_other_entries():
    alphabet = Alphabet("ab")
    params = init_params(np.random.default_rng(3), 2, alphabet, 4)
    e = LexiconEntry(morphemes=(0,), form=(0, 1))
    s1 = spell_and_score(Variant.POS_INDEPENDENT, [e.morphemes], [e.form], params, alphabet)[1][0]
    spell_and_score(Variant.POS_INDEPENDENT, [(1,)], [(1,)], params, alphabet)
    assert spell_and_score(Variant.POS_INDEPENDENT, [e.morphemes], [e.form], params,
                           alphabet)[1][0] == s1


def test_evaluate_report_and_unknowns():
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1"])
    params = init_params(np.random.default_rng(4), 2, alphabet, 4)
    items = [(("m0",), "ab"), (("m0", "m1"), "ba"), (("mystery",), "aaa")]
    rep = evaluate(Variant.JOINT, params, alphabet, vocab, items, max_len=6)
    assert rep.n_items == 3 and rep.n_unknown == 1
    unk = rep.items[2]
    assert unk.unknown and unk.predicted == "" and unk.edit_distance == 3
    assert unk.surprisal is None
    assert 0.0 <= rep.accuracy <= 100.0
    # deterministic: identical on repeat
    rep2 = evaluate(Variant.JOINT, params, alphabet, vocab, items, max_len=6)
    assert rep2 == rep
    with pytest.raises(DataError):
        evaluate(Variant.JOINT, params, alphabet, vocab, [], max_len=6)


def test_predict_matches_per_word_decoding_and_scoring():
    # 160 requests in lockstep chunks, one, two and three morphemes, with
    # out-of-vocabulary morphemes, gold forms that do not encode and
    # requests without gold mixed in; each record must equal what the
    # one-word spell_and_score and WordPass give it, in request order
    alphabet = Alphabet("abc")
    vocab = MorphemeVocab([f"m{i}" for i in range(5)])
    rng = np.random.default_rng(24)
    params = init_params(rng, 5, alphabet, 6)
    params.flat *= 3.0
    requests = []
    for i in range(160):
        morphemes = tuple(f"m{j}" for j in rng.integers(0, 5, rng.integers(1, 4)))
        gold = "".join(rng.choice(list("abc"), size=rng.integers(1, 7)))
        if i % 17 == 0:
            morphemes += ("mystery",)
        gold = (None, "", "axb")[i % 3] if i % 5 == 0 else gold
        requests.append((morphemes, gold))
    for variant in Variant:
        records = predict(variant, params, alphabet, vocab, requests, max_len=5)
        assert [(r.morphemes, r.gold) for r in records] == requests
        for r, (morphemes, gold) in zip(records, requests):
            assert r.unknown == ("mystery" in morphemes)
            if r.unknown:
                assert r.predicted == "" and r.surprisal is None
                continue
            ids = [vocab.index(m) for m in morphemes]
            assert r.predicted == alphabet.decode(
                spell_and_score(variant, [ids], [None], params, alphabet, max_len=5)[0][0])
            if gold in (None, "", "axb"):
                assert r.surprisal is None
                continue
            entry = LexiconEntry(tuple(ids), alphabet.encode(gold))
            want = -WordPass(variant, entry, params, alphabet).logprob / (len(gold) + 1)
            assert abs(r.surprisal - want) <= 1e-10 * abs(want)
        assert predict(variant, params, alphabet, vocab, requests, max_len=5) == records


def test_evaluate_acc_100_implies_zero_distance():
    # a rigged always-right predictor: train-free check via single symbol
    alphabet = Alphabet("a")
    vocab = MorphemeVocab(["m0"])
    params = init_params(np.random.default_rng(5), 1, alphabet, 4)
    items = [(("m0",), "a")]
    rep = evaluate(Variant.JOINT, params, alphabet, vocab, items, max_len=3)
    if rep.accuracy == 100.0:
        assert rep.mean_levenshtein == 0.0
    rep_bad = evaluate(Variant.JOINT, params, alphabet, vocab,
                       [(("m0",), "aaaa")], max_len=3)
    assert rep_bad.accuracy < 100.0 or rep_bad.mean_levenshtein == 0.0


def test_mean_sd_fixture():
    mean, sd = mean_sd([3.0, 5.0, 7.0])
    assert mean == 5.0 and sd == 2.0
    mean1, sd1 = mean_sd([4.2])
    assert mean1 == 4.2 and sd1 == 0.0


def test_resample_eval_aggregates():
    def protocol(variant, k, seed):
        # fabricated deterministic metrics: vary with k, not with seed
        return EvalReport(accuracy=float(k), mean_levenshtein=1.0 / k,
                          mean_surprisal=0.5, n_items=1, n_unknown=0)

    points = resample_eval(protocol, [Variant.POS_INDEPENDENT], sizes=[2, 4],
                           n_resamples=3, seed=0)
    assert [p.k for p in points] == [2, 4]
    assert points[0].acc_mean == 2.0 and points[0].acc_sd == 0.0
    assert points[1].mld_mean == 0.25 and points[1].nll_mean == 0.5
    with pytest.raises(ConfigError):
        resample_eval(protocol, [Variant.POS_INDEPENDENT], [2], n_resamples=1, seed=0)


def test_resample_eval_seed_isolation():
    seeds_seen = []

    def protocol(variant, k, seed):
        seeds_seen.append(seed)
        return EvalReport(accuracy=0.0, mean_levenshtein=0.0,
                          mean_surprisal=0.0, n_items=1, n_unknown=0)

    resample_eval(protocol, [Variant.POS_INDEPENDENT], sizes=[2, 3], n_resamples=2, seed=1)
    assert len(set(seeds_seen)) == 4  # every (k, resample) cell distinct


def test_resample_eval_maps_cells_in_order():
    def protocol(variant, k, seed):
        # metrics that vary with the variant and the seed, so a reordered
        # cell would show
        return EvalReport(accuracy=float(seed % 97), mean_levenshtein=float(k),
                          mean_surprisal=(seed % 89) / 7.0 + len(variant.value),
                          n_items=1, n_unknown=0)

    calls = []

    def recording_map(fn, variants, ks, seeds):
        calls.append((list(variants), list(ks), list(seeds)))
        return [fn(v, k, s) for v, k, s in zip(variants, ks, seeds)]

    variants = [Variant.JOINT, Variant.POS_INDEPENDENT]
    points = resample_eval(protocol, variants, sizes=[3, 5], n_resamples=2, seed=4,
                           map=recording_map)
    assert points == resample_eval(protocol, variants, sizes=[3, 5], n_resamples=2, seed=4)
    assert len(calls) == 1  # every variant's cells in one map
    vs, ks, seeds = calls[0]
    assert vs == [Variant.JOINT] * 4 + [Variant.POS_INDEPENDENT] * 4
    assert ks == [3, 3, 5, 5] * 2
    one_variant = [derive_seed(4, f"resample-k{k}-r{r}") for k in (3, 5) for r in range(2)]
    assert seeds == one_variant * 2  # the same seeds for each variant
    assert [(p.variant, p.k) for p in points] == [(v, k) for v in variants for k in (3, 5)]
    seeds_of = {3: one_variant[:2], 5: one_variant[2:]}
    for p in points:  # each point aggregates its own variant's cells
        want = mean_sd([protocol(p.variant, p.k, s).mean_surprisal for s in seeds_of[p.k]])
        assert (p.nll_mean, p.nll_sd) == want


# ---------------------------------------------------------------------------
# paired permutation test

def test_permutation_identical_systems():
    a = np.arange(10, dtype=float)
    assert paired_permutation_test(a, a.copy()) == 1.0


def test_permutation_ten_pairs_all_favoring_a():
    a = np.ones(10)
    b = np.zeros(10)
    p = paired_permutation_test(a, b)
    assert p == pytest.approx(2.0 / 1024.0)


def test_permutation_monte_carlo_matches_exact():
    rng = np.random.default_rng(6)
    for trial in range(3):
        diffs = rng.normal(0.3, 1.0, size=12)
        base = np.zeros(12)
        exact = paired_permutation_test(diffs, base)  # n<=20: enumeration
        # force the Monte Carlo path by widening the vectors with zeros
        wide_a = np.concatenate([diffs, np.zeros(9)])
        wide_b = np.zeros(21)
        mc = paired_permutation_test(wide_a, wide_b, n_permutations=40000,
                                     seed=trial)
        assert abs(mc - exact) <= 0.01


def test_permutation_null_uniformity():
    # on pure-noise pairs the p-value is uniform; coarse decile check
    rng = np.random.default_rng(7)
    pvals = []
    for _ in range(500):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        pvals.append(paired_permutation_test(a, b))
    pvals = np.array(pvals)
    for lo in np.arange(0.0, 1.0, 0.1):
        frac = np.mean((pvals > lo) & (pvals <= lo + 0.1))
        assert abs(frac - 0.1) < 0.05


def test_permutation_validation():
    with pytest.raises(DataError):
        paired_permutation_test([1.0, 2.0], [1.0])
    with pytest.raises(ConfigError):
        paired_permutation_test(np.ones(5), np.zeros(5), n_permutations=10)


def test_pca2_captures_dominant_direction():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 1)) @ np.array([[3.0, 0.0, 0.0, 0.0]])
    x = base + 0.01 * rng.normal(size=(40, 4))
    scores = pca2(x)
    # first component recovers the planted axis up to tiny noise
    assert np.corrcoef(scores[:, 0], base[:, 0])[0, 1] > 0.999


def test_pca2_invariant_to_rotation_up_to_sign():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    s1 = pca2(x)
    s2 = pca2(x @ q)
    for axis in range(2):
        same = np.allclose(s1[:, axis], s2[:, axis], atol=1e-8)
        flipped = np.allclose(s1[:, axis], -s2[:, axis], atol=1e-8)
        assert same or flipped


def test_cosine():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)
    assert cosine(v, np.zeros(3)) == 0.0
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine(a, b) == pytest.approx(0.0)
