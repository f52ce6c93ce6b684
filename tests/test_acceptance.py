"""Release gate: nine end-to-end checks.

Each check prints one bracketed PASS/FAIL line with its headline numbers
(visible under ``pytest -s`` or on failure) and pins its tolerances next
to the assertions. The training-based checks run small fixed-seed
configurations chosen to finish inside their stated time budgets.
"""

from __future__ import annotations

import math
import time
from itertools import combinations, product

import numpy as np
import pytest

import synthlang
from vecphon import cli
from vecphon.checkpoint import load_checkpoint, save_checkpoint
from vecphon.data import (SplitSpec, WeightedForm, build_vocab,
                          sample_training_set, split_paradigms)
from vecphon.evaluation import (cosine, evaluate, levenshtein,
                                paired_permutation_test, resample_eval)
from vecphon.model import (Variant, WordPass, emit, init_params, lstm_step,
                           spell_and_score)
from vecphon.seeds import derive_rng, derive_seed
from vecphon.training import TrainConfig, mean_dev_loss, train
from vecphon.vocab import Alphabet, LexiconEntry, MorphemeVocab, encode_entry

ALL_VARIANTS = (Variant.POS_INDEPENDENT, Variant.POS_DEPENDENT, Variant.JOINT)


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def entries_from_slots(slots, alphabet, vocab):
    return [encode_entry(alphabet, vocab, m, f) for m, f in slots]


# ---------------------------------------------------------------------------
# 1. end-to-end gradients against central finite differences

def test_criterion_1_end_to_end_gradients():
    t0 = time.monotonic()
    alphabet = Alphabet("abcd")
    entry = LexiconEntry(morphemes=(0, 1), form=alphabet.encode("bca"))
    step = 1e-5
    worst = {}
    for variant in ALL_VARIANTS:
        rng = derive_rng(17, f"gradcheck-{variant.value}")
        params = init_params(rng, n_morphemes=2, alphabet=alphabet, d=6)
        draws = [rng.standard_normal(6) for _ in range(8)]

        def pinned_eps(draws=draws):
            it = iter(draws)
            return lambda: next(it)

        def loss_value():
            return -WordPass(variant, entry, params, alphabet,
                             eps=pinned_eps()).logprob.item()

        grads = params.like()
        WordPass(variant, entry, params, alphabet, eps=pinned_eps()).nll_backward(grads)
        analytic = grads.named_arrays()

        for name, tensor in params.named_arrays().items():
            fd = np.zeros_like(tensor)
            it = np.nditer(tensor, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = tensor[idx]
                tensor[idx] = keep + step
                hi = loss_value()
                tensor[idx] = keep - step
                lo = loss_value()
                tensor[idx] = keep
                fd[idx] = (hi - lo) / (2.0 * step)
            denom = max(np.linalg.norm(fd) + np.linalg.norm(analytic[name]), 1e-12)
            rel = np.linalg.norm(fd - analytic[name]) / denom
            worst[(variant.value, name)] = rel

    elapsed = time.monotonic() - t0
    (variant_name, tensor_name), rel_max = max(worst.items(), key=lambda kv: kv[1])
    ok = rel_max < 1e-4 and elapsed < 60.0
    verdict("criterion 1 (gradient check)", ok,
            f"worst relative error {rel_max:.2e} on {variant_name}/{tensor_name}, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the per-word distribution is a distribution

def test_criterion_2_probability_mass_accounting():
    alphabet = Alphabet("ab")
    cap = 4
    gaps = {}
    for variant in ALL_VARIANTS:
        rng = derive_rng(23, f"mass-{variant.value}")
        params = init_params(rng, n_morphemes=2, alphabet=alphabet, d=5)
        total = 0.0
        for length in range(cap + 1):
            for chars in product(range(alphabet.size), repeat=length):
                entry = LexiconEntry(morphemes=(0, 1), form=chars)
                total += math.exp(WordPass(variant, entry, params, alphabet).logprob.item())

        # strings longer than the cap: the first cap+1 emissions are all
        # characters, so sum the char-emission mass over every such path
        zx = params.char_emb @ params.lstm_wx.T + params.lstm_b
        w_h, w_u = params.readout_w[:, :params.d], params.readout_w[:, params.d:]
        m = params.morph_emb[[0, 1]]
        keys, m_read = m @ params.attn_t.T, m @ w_u.T

        def descend(h, c, prev, depth, logp):
            if depth == cap + 1:
                return math.exp(logp)
            h, c, _ = lstm_step(params, zx[prev], h, c)
            logdist = emit(params, variant, h, h @ w_h.T, keys, m_read).logdist
            return sum(descend(h, c, sym, depth + 1, logp + float(logdist[sym]))
                       for sym in range(alphabet.size))

        total += descend(np.zeros(params.d), np.zeros(params.d), alphabet.bos_id, 0, 0.0)
        gaps[variant.value] = abs(total - 1.0)
    gap_max = max(gaps.values())
    verdict("criterion 2 (probability mass)", gap_max < 1e-8,
            f"worst |total - 1| = {gap_max:.2e} over " + ", ".join(gaps))


# ---------------------------------------------------------------------------
# 3. capacity: memorize a small corpus

def test_criterion_3_overfit_small_corpus():
    t0 = time.monotonic()
    slots = synthlang.harmony_slots(10, 5)  # 50 forms
    assert len(slots) == 50
    alphabet, vocab = build_vocab((f for _, f in slots), (m for m, _ in slots))
    entries = entries_from_slots(slots, alphabet, vocab)
    config = TrainConfig(variant=Variant.POS_INDEPENDENT, d=32, max_epochs=300,
                         patience=3, seed=11)
    params, log = train(config, entries, entries, alphabet, vocab)
    report = evaluate(Variant.POS_INDEPENDENT, params, alphabet, vocab,
                      list(slots), 2 * max(len(e.form) for e in entries) + 5)
    elapsed = time.monotonic() - t0
    ok = report.accuracy >= 99.0 and len(log.records) <= 500 and elapsed < 300.0
    verdict("criterion 3 (overfit)", ok,
            f"train ACC {report.accuracy:.1f} after {len(log.records)} epochs, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4 + 7 share one set of trained harmony models

HARMONY_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def harmony_runs():
    """3 seeds x 3 variants on the 20x10 harmony language, 160/20/20 split."""
    slots = synthlang.harmony_slots(20, 10)
    morph_seqs = [m for m, _ in slots]
    spec = SplitSpec(seed=derive_seed(4, "acceptance-split"))
    train_ix, dev_ix, test_ix = split_paradigms(morph_seqs, spec)
    assert (len(train_ix), len(dev_ix), len(test_ix)) == (160, 20, 20)
    alphabet, vocab = build_vocab((f for _, f in slots), morph_seqs)
    train_e = [encode_entry(alphabet, vocab, *slots[i]) for i in train_ix]
    dev_e = [encode_entry(alphabet, vocab, *slots[i]) for i in dev_ix]
    test_items = [slots[i] for i in test_ix]
    max_len = 2 * max(len(e.form) for e in train_e) + 5

    def run(variant, seed):
        config = TrainConfig(variant=variant, d=32, max_epochs=40,
                             patience=2, seed=seed)
        params, _ = train(config, train_e, dev_e, alphabet, vocab)
        report = evaluate(variant, params, alphabet, vocab, test_items, max_len)
        return {"morph_emb": params.morph_emb.copy(), "acc": report.accuracy}

    cells = [(variant, seed) for variant in ALL_VARIANTS for seed in HARMONY_SEEDS]
    with cli.fork_pool(run, len(cells)) as (cell, map_):
        runs = dict(zip(cells, map_(cell, *zip(*cells))))
    return {"runs": runs, "vocab": vocab}


def test_criterion_4_variant_ordering(harmony_runs):
    runs = harmony_runs["runs"]
    mean_acc = {variant: np.mean([runs[(variant, s)]["acc"] for s in HARMONY_SEEDS])
                for variant in ALL_VARIANTS}
    pi = mean_acc[Variant.POS_INDEPENDENT]
    pd = mean_acc[Variant.POS_DEPENDENT]
    jt = mean_acc[Variant.JOINT]
    verdict("criterion 4 (variant ordering)", pi >= pd and pi >= jt,
            f"mean test ACC over {len(HARMONY_SEEDS)} seeds: "
            f"pos-indep {pi:.1f}, pos-dep {pd:.1f}, joint {jt:.1f}")


def test_criterion_7_harmony_embedding_geometry(harmony_runs):
    runs = harmony_runs["runs"]
    vocab = harmony_runs["vocab"]
    front = [f"suf{j}" for j in range(5)]
    back = [f"suf{j}" for j in range(5, 10)]
    margins = []
    for seed in HARMONY_SEEDS:
        emb = runs[(Variant.POS_INDEPENDENT, seed)]["morph_emb"]
        vec = {m: emb[vocab.index(m)] for m in front + back}
        within = np.mean([cosine(vec[a], vec[b]) for cls in (front, back)
                          for a, b in combinations(cls, 2)])
        cross = np.mean([cosine(vec[a], vec[b]) for a in front for b in back])
        margins.append(within - cross)
    mean_margin = float(np.mean(margins))
    verdict("criterion 7 (harmony geometry)", mean_margin > 0.0,
            f"mean within-class minus cross-class cosine {mean_margin:+.3f} "
            f"(per seed: {', '.join(f'{m:+.3f}' for m in margins)})")


# ---------------------------------------------------------------------------
# 5. more training data helps

def test_criterion_5_learning_curve():
    t0 = time.monotonic()
    slots = synthlang.harmony_slots(60, 10)  # 600 weighted forms
    counts = synthlang.zipf_counts(len(slots), derive_rng(5, "acceptance-zipf"))
    morph_seqs = [m for m, _ in slots]
    forms = [f for _, f in slots]
    spec = SplitSpec(train_frac=0.84, dev_frac=0.08, test_frac=0.08,
                     seed=derive_seed(5, "acceptance-curve-split"))
    pool_ix, dev_ix, test_ix = split_paradigms(morph_seqs, spec)
    alphabet, vocab = build_vocab(forms, morph_seqs)
    pool = [WeightedForm(forms[i], tuple(morph_seqs[i]), counts[i]) for i in pool_ix]
    dev_e = [encode_entry(alphabet, vocab, *slots[i]) for i in dev_ix]
    test_items = [slots[i] for i in test_ix]
    max_len = 2 * max(len(f) for f in forms) + 5

    def protocol(variant, k, sub_seed):
        chosen = sample_training_set(pool, k, np.random.default_rng(sub_seed))
        train_e = [encode_entry(alphabet, vocab, w.morphemes, w.form)
                   for w in chosen]
        config = TrainConfig(variant=Variant.POS_INDEPENDENT, d=24,
                             max_epochs=35, patience=2, seed=sub_seed)
        params, _ = train(config, train_e, dev_e, alphabet, vocab)
        return evaluate(Variant.POS_INDEPENDENT, params, alphabet, vocab,
                        test_items, max_len)

    with cli.fork_pool(protocol, 4 * 5) as (cell, map_):
        points = resample_eval(cell, [Variant.POS_INDEPENDENT], [50, 100, 200, 400], 5,
                               seed=7, map=map_)
    accs = [p.acc_mean for p in points]
    drops = [max(0.0, accs[i] - accs[i + 1]) for i in range(len(accs) - 1)]
    n_violations = sum(d > 1e-9 for d in drops)
    elapsed = time.monotonic() - t0
    ok = n_violations <= 1 and max(drops) <= 2.0 and elapsed < 1800.0
    curve = ", ".join(f"k={p.k}: {p.acc_mean:.1f}+-{p.acc_sd:.1f}" for p in points)
    verdict("criterion 5 (learning curve)", ok,
            f"{curve}; adjacent drops {['%.1f' % d for d in drops]}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. metric oracles

def reference_edit_distance(a, b):
    # full-matrix DP, coded independently of the two-row production version
    m, n = len(a), len(b)
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    table[:, 0] = np.arange(m + 1)
    table[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            table[i, j] = min(table[i - 1, j] + 1,
                              table[i, j - 1] + 1,
                              table[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(table[m, n])


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(66)

    mismatches = 0
    for _ in range(1000):
        a = "".join(rng.choice(list("wxyz"), size=rng.integers(0, 13)))
        b = "".join(rng.choice(list("wxyz"), size=rng.integers(0, 13)))
        mismatches += levenshtein(a, b) != reference_edit_distance(a, b)

    # exact-enumeration p-values against a big Monte Carlo estimate
    p_gaps = []
    for n_pairs, shift in ((10, 0.0), (12, 0.6)):
        a = rng.normal(shift, 1.0, size=n_pairs)
        b = rng.normal(0.0, 1.0, size=n_pairs)
        p_exact = paired_permutation_test(a, b)
        diffs = a - b
        observed = diffs.sum()
        signs = rng.choice([-1.0, 1.0], size=(200_000, n_pairs))
        sums = signs @ diffs
        tol = 1e-12 * max(1.0, abs(observed))
        extreme = int(np.count_nonzero(np.abs(sums) >= abs(observed) - tol))
        p_mc = (1 + extreme) / (1 + 200_000)
        p_gaps.append(abs(p_mc - p_exact))

    alphabet = Alphabet("abcd")
    entry = LexiconEntry(morphemes=(0, 1), form=alphabet.encode("cab"))
    params = init_params(np.random.default_rng(3), 2, alphabet, d=4)
    params.readout_v[:] = 0.0  # uniform over the 5-way output space
    surp_gaps = [abs(-spell_and_score(v, [entry.morphemes], [entry.form], params, alphabet)[1][0]
                     / (len(entry.form) + 1) - math.log(alphabet.out_size))
                 for v in ALL_VARIANTS]

    ok = mismatches == 0 and max(p_gaps) <= 0.01 and max(surp_gaps) < 1e-10
    verdict("criterion 6 (metric oracles)", ok,
            f"edit-distance mismatches {mismatches}/1000, "
            f"permutation |exact - MC| max {max(p_gaps):.4f}, "
            f"uniform surprisal error max {max(surp_gaps):.1e}")


# ---------------------------------------------------------------------------
# 8. determinism and persistence

def test_criterion_8_determinism_and_checkpoint(tmp_path):
    slots = synthlang.harmony_slots(4, 4)
    alphabet, vocab = build_vocab((f for _, f in slots), (m for m, _ in slots))
    entries = entries_from_slots(slots, alphabet, vocab)
    train_e, dev_e = entries[:12], entries[12:]
    config = TrainConfig(variant=Variant.POS_DEPENDENT, d=10, max_epochs=6, seed=9)

    params_a, log_a = train(config, train_e, dev_e, alphabet, vocab)
    params_b, log_b = train(config, train_e, dev_e, alphabet, vocab)
    identical = log_a.format_lines() == log_b.format_lines()

    path = tmp_path / "model.vpck"
    save_checkpoint(str(path), params_a, config.variant, alphabet, vocab)
    loaded, variant, alpha2, vocab2 = load_checkpoint(str(path))
    reload_gap = abs(mean_dev_loss(variant, dev_e, loaded, alpha2) - log_a.best_dev_loss)

    ok = identical and reload_gap < 1e-6 and alpha2 == alphabet and vocab2 == vocab
    verdict("criterion 8 (determinism and persistence)", ok,
            f"train logs identical: {identical}, reload dev-loss gap {reload_gap:.2e}")


# ---------------------------------------------------------------------------
# 9. the single-sample objective really is an upper bound

def test_criterion_9_sampled_loss_bounds_exact_nll():
    alphabet = Alphabet("ab")
    entry = LexiconEntry(morphemes=(0,), form=alphabet.encode("ab"))
    params = init_params(np.random.default_rng(90), 1, alphabet, d=2)
    variant = Variant.POS_INDEPENDENT

    def neg_logprob(offset):
        return -WordPass(variant, entry, params, alphabet,
                         eps=lambda: offset).logprob.item()

    # exact -log p by 40-node tensor-product Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    mass = 0.0
    for i, zi in enumerate(nodes):
        for j, zj in enumerate(nodes):
            offset = math.sqrt(2.0) * np.array([zi, zj])
            mass += weights[i] * weights[j] / math.pi * math.exp(-neg_logprob(offset))
    exact_nll = -math.log(mass)

    draws = np.random.default_rng(91).standard_normal((10_000, 2))
    losses = np.array([neg_logprob(e) for e in draws])
    mean_loss = float(losses.mean())
    stderr = float(losses.std(ddof=1) / math.sqrt(len(losses)))

    ok = mean_loss >= exact_nll - 3.0 * stderr
    verdict("criterion 9 (sampling bound)", ok,
            f"mean single-sample loss {mean_loss:.4f} vs exact NLL {exact_nll:.4f} "
            f"(gap {mean_loss - exact_nll:+.4f}, 3 SE = {3 * stderr:.4f})")
