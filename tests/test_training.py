"""Training-loop contracts: schedule arithmetic, sampling, objective
identities, determinism, and best-checkpoint restoration."""

from __future__ import annotations

import copy
import os

import numpy as np
import pytest

from test_model import ALL_VARIANTS
from vecphon import training as tr
from vecphon.checkpoint import load_checkpoint, save_checkpoint
from vecphon.errors import ConfigError, TrainingError
from vecphon.model import Variant, WordPass, init_params
from vecphon.seeds import derive_rng
from vecphon.training import (Adam, PlateauSchedule, TrainConfig, clip_global_norm,
                              elbo_word_loss, mean_dev_loss, train)
from vecphon.vocab import Alphabet, LexiconEntry


def make_config(**kw):
    base = dict(variant=Variant.POS_INDEPENDENT, d=8, dropout=0.0, lr=1e-3,
                patience=1, batch_size=1, max_epochs=3, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(lr=1e-6, min_lr=1e-5)
    with pytest.raises(ConfigError):
        make_config(patience=0)
    with pytest.raises(ConfigError):
        make_config(dropout=1.0)
    with pytest.raises(ConfigError):
        make_config(batch_size=0)
    with pytest.raises(ConfigError):
        make_config(max_epochs=0)
    with pytest.raises(ConfigError):
        make_config(d=0)


def test_plateau_schedule_seven_halvings_then_stop():
    # non-improving dev loss: 1e-3 halves to below 1e-5 on the 7th halving
    s = PlateauSchedule(lr=1e-3, min_lr=1e-5, patience=1)
    assert s.update(1.0) == "improved"
    verdicts = [s.update(1.0) for _ in range(7)]
    assert verdicts == ["halved"] * 6 + ["stop"]
    assert s.lr == pytest.approx(1e-3 / 2 ** 7)


def test_plateau_schedule_patience_waits():
    s = PlateauSchedule(lr=1e-3, min_lr=1e-5, patience=3)
    s.update(1.0)
    assert s.update(1.0) == "waited"
    assert s.update(1.0) == "waited"
    assert s.update(1.0) == "halved"
    assert s.lr == 5e-4
    # improvement resets the counter
    assert s.update(0.5) == "improved"
    assert s.update(0.6) == "waited"


def test_plateau_improvement_needs_margin():
    s = PlateauSchedule(lr=1e-3, min_lr=1e-5, patience=1)
    s.update(1.0)
    assert s.update(1.0 - 1e-9) == "halved"  # within tolerance: not better
    assert s.update(0.9) == "improved"


def test_elbo_identities():
    rng = np.random.default_rng(2)
    alphabet = Alphabet("abc")
    params = init_params(rng, 3, alphabet, 6)
    entry = LexiconEntry(morphemes=(0, 2), form=(0, 1, 2))
    # joint variant: no latent, loss is exactly the negative log-likelihood
    loss = elbo_word_loss(Variant.JOINT, entry, params, alphabet,
                          np.random.default_rng(5)).item()
    lp = WordPass(Variant.JOINT, entry, params, alphabet).logprob.item()
    assert loss == pytest.approx(-lp, abs=1e-12)
    # pinned noise (rng None) reduces every variant to the mean objective
    for variant in ALL_VARIANTS:
        loss0 = elbo_word_loss(variant, entry, params, alphabet, None).item()
        assert loss0 == pytest.approx(
            -WordPass(variant, entry, params, alphabet).logprob.item(), abs=1e-12)


def test_each_word_draws_its_noise_and_masks_once():
    # a word advances the noise generator by d normals (pos-indep), T*d
    # (pos-dep) or none (joint), and the dropout generator by (k+T)*d
    # uniforms at a positive rate and none at rate 0: the layout that
    # repeated runs and a batch's one-block draw rely on
    alphabet = Alphabet("abc")
    params = init_params(np.random.default_rng(0), 3, alphabet, 5)
    entry = LexiconEntry(morphemes=(0, 2), form=(1, 0, 2))
    k, T, d = 2, 4, 5
    n_normals = {Variant.POS_INDEPENDENT: d, Variant.POS_DEPENDENT: T * d, Variant.JOINT: 0}
    for variant, n_noise in n_normals.items():
        for dropout, n_masks in ((0.0, 0), (0.3, (k + T) * d)):
            noise_rng, drop_rng = np.random.default_rng(1), np.random.default_rng(2)
            elbo_word_loss(variant, entry, params, alphabet, noise_rng,
                           dropout=dropout, drop_rng=drop_rng, grads=params.like())
            fresh_noise, fresh_drop = np.random.default_rng(1), np.random.default_rng(2)
            fresh_noise.standard_normal(n_noise)
            fresh_drop.random(n_masks)
            assert noise_rng.standard_normal() == fresh_noise.standard_normal(), (variant, dropout)
            assert drop_rng.random() == fresh_drop.random(), (variant, dropout)


def test_single_sample_estimator_statistics():
    # two independent 200-draw batches agree within joint standard error
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(11)
    alphabet = Alphabet("ab")
    params = init_params(np.random.default_rng(3), 2, alphabet, 6)
    entry = LexiconEntry(morphemes=(0, 1), form=(0, 1, 0))

    def batch(rng, n=200):
        return np.array([elbo_word_loss(Variant.POS_INDEPENDENT, entry, params,
                                        alphabet, rng).item() for _ in range(n)])

    a, b = batch(rng_a), batch(rng_b)
    se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    assert a.std(ddof=1) > 0  # the latent really moves the loss
    assert abs(a.mean() - b.mean()) < 5.0 * se


def test_one_step_decreases_loss_with_same_noise():
    # descent check at small lr, re-evaluated at the identical epsilon
    for seed in range(6):
        rng = np.random.default_rng(seed)
        alphabet = Alphabet("abc")
        params = init_params(rng, 2, alphabet, 6)
        entry = LexiconEntry(morphemes=(0, 1), form=tuple(rng.integers(0, 3, size=3)))
        variant = ALL_VARIANTS[seed % 3]
        noise_rng = copy.deepcopy(rng)  # each pass draws the same leading values

        def word_now():
            return WordPass(variant, entry, params, alphabet,
                            eps=copy.deepcopy(noise_rng).standard_normal)

        before = -word_now().logprob
        grads = params.like()
        opt = Adam(params.flat, grads.flat, lr=1e-4)
        word_now().nll_backward(grads)
        opt.step()
        after = -word_now().logprob
        assert after < before


def test_batch_gradient_sparsity(tiny_harmony):
    slots, alphabet, vocab, entries = tiny_harmony
    params = init_params(np.random.default_rng(4), len(vocab), alphabet, 8)
    entry = entries[0]
    grads = params.like()
    elbo_word_loss(Variant.POS_INDEPENDENT, entry, params, alphabet, None, grads=grads)
    used_chars = set(entry.form) | {alphabet.bos_id}
    for row in range(alphabet.table_size):
        hit = np.any(grads.char_emb[row] != 0.0)
        assert hit == (row in used_chars)
    used_morphs = set(entry.morphemes)
    for row in range(len(vocab)):
        hit = np.any(grads.morph_emb[row] != 0.0)
        assert hit == (row in used_morphs)


def test_batch_step_uses_mean_of_per_word_gradients(tiny_harmony, monkeypatch):
    # two words, one batch, one epoch: train takes exactly one Adam step,
    # which must match a step on the mean of gradients from separate buffers
    slots, alphabet, vocab, entries = tiny_harmony
    words = entries[:2]
    after_step = []

    class RecordingAdam(Adam):
        def step(self):
            super().step()
            after_step.append(self.params.copy())

    monkeypatch.setattr(tr, "Adam", RecordingAdam)
    for variant in ALL_VARIANTS:
        cfg = make_config(variant=variant, batch_size=2, max_epochs=1, seed=11)
        after_step.clear()
        trained, _ = train(cfg, words, entries, alphabet, vocab)
        assert len(after_step) == 1

        params = init_params(derive_rng(cfg.seed, "init"), len(vocab), alphabet, cfg.d)
        initial_attn_t = params.attn_t.copy()
        noise_rng = derive_rng(cfg.seed, "noise")
        grads = []
        for i in derive_rng(cfg.seed, "order").permutation(len(words)):
            grads.append(params.like())
            elbo_word_loss(variant, words[i], params, alphabet, noise_rng,
                           grads=grads[-1])
        # pos-indep never reads attn_t, the last field, so train steps only
        # the prefix before it
        n = after_step[0].size
        assert n == params.flat.size - (variant is Variant.POS_INDEPENDENT) * params.attn_t.size
        mean = (grads[0].flat[:n] + grads[1].flat[:n]) / 2.0
        mean *= clip_global_norm(mean, tr.GRAD_NORM_CAP)[1]
        opt = Adam(params.flat[:n], mean, lr=cfg.lr)
        opt.step()
        assert np.allclose(after_step[0], params.flat[:n], rtol=0, atol=1e-12)
        if variant is Variant.POS_INDEPENDENT:
            assert np.array_equal(trained.attn_t, initial_attn_t.astype(np.float32))


def test_written_gradients_and_attn_t_prefix_match_zero_and_add_reference(
        tiny_harmony, monkeypatch):
    # train writes a batch's dense gradient blocks on its first word and
    # clears only the embedding rows it touched; a loop that zeroes the
    # whole buffer and adds every word must step to the same bits
    slots, alphabet, vocab, entries = tiny_harmony
    stepped, made, first_calls = [], [], []

    def recording_init(*args):
        made.append(init_params(*args))
        return made[-1]

    class RecordingAdam(Adam):
        def step(self):
            super().step()
            stepped.append(made[-1].flat.copy())

    def checked_loss(*args, grads, accumulate, **kwargs):
        if not accumulate:  # a batch's first backward finds clean embedding rows
            first_calls.append(not grads.morph_emb.any() and not grads.char_emb.any())
        return elbo_word_loss(*args, grads=grads, accumulate=accumulate, **kwargs)

    monkeypatch.setattr(tr, "init_params", recording_init)
    monkeypatch.setattr(tr, "Adam", RecordingAdam)
    monkeypatch.setattr(tr, "elbo_word_loss", checked_loss)
    for variant in ALL_VARIANTS:
        for batch_size in (1, 3):
            cfg = make_config(variant=variant, batch_size=batch_size, max_epochs=2,
                              dropout=0.1, seed=12)
            stepped.clear()
            first_calls.clear()
            train(cfg, entries, entries, alphabet, vocab)
            n_batches = 2 * -(-len(entries) // batch_size)
            assert len(stepped) == n_batches and first_calls == [True] * n_batches

            params = init_params(derive_rng(cfg.seed, "init"), len(vocab), alphabet, cfg.d)
            initial_attn_t = params.attn_t.copy()
            order_rng, drop_rng, noise_rng = (derive_rng(cfg.seed, name)
                                              for name in ("order", "dropout", "noise"))
            grads = params.like()
            n = params.flat.size - (variant is Variant.POS_INDEPENDENT) * params.attn_t.size
            opt = Adam(params.flat[:n], grads.flat[:n], lr=cfg.lr)
            reference = []
            for _ in range(cfg.max_epochs):
                order = order_rng.permutation(len(entries))
                for start in range(0, len(entries), batch_size):
                    batch = [entries[i] for i in order[start:start + batch_size]]
                    grads.flat.fill(0.0)
                    for entry in batch:
                        elbo_word_loss(variant, entry, params, alphabet, noise_rng,
                                       dropout=cfg.dropout, drop_rng=drop_rng, grads=grads)
                    grads.flat /= len(batch)
                    opt.grad *= clip_global_norm(opt.grad, tr.GRAD_NORM_CAP)[1]
                    opt.step()
                    reference.append(params.flat.copy())
            for got, want in zip(stepped, reference):
                assert np.array_equal(got, want), (variant, batch_size)
            if variant is Variant.POS_INDEPENDENT:
                assert all(np.array_equal(got[n:], initial_attn_t.ravel()) for got in stepped)


def test_train_deterministic_and_loss_decreases(tiny_harmony):
    slots, alphabet, vocab, entries = tiny_harmony
    cfg = make_config(d=10, max_epochs=4, seed=7, dropout=0.1,
                      variant=Variant.POS_INDEPENDENT)
    p1, log1 = train(cfg, entries, entries, alphabet, vocab)
    p2, log2 = train(cfg, entries, entries, alphabet, vocab)
    assert log1.format_lines() == log2.format_lines()
    assert [r.dev_loss for r in log1.records] == [r.dev_loss for r in log2.records]
    assert np.array_equal(p1.flat, p2.flat)
    assert log1.records[-1].train_loss < log1.records[0].train_loss
    # learning-rate trace never increases
    lrs = [r.lr for r in log1.records]
    assert all(x >= y for x, y in zip(lrs, lrs[1:]))


def written_in_a_fork(flat) -> bool:
    """Whether a forked child's write into ``flat`` reaches this process."""
    before = flat[0]
    pid = os.fork()
    if pid == 0:
        try:
            flat[0] = before + 1.0
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    return flat[0] != before


def test_blas_threads_reaches_numpys_openblas():
    # a misspelt symbol would read None everywhere, and quietly turn off the
    # optimizer shards and resample's pool
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not scipy-openblas")
    assert isinstance(tr.blas_threads(), int)
    assert tr.blas_threads(1) == 1


def test_train_restores_best_checkpoint(tiny_harmony, monkeypatch):
    slots, alphabet, vocab, entries = tiny_harmony
    cfg = make_config(d=10, max_epochs=5, seed=8)
    monkeypatch.setattr(tr, "SHARD_MIN", 1)
    for shards in (1, 2):  # 2: params and grads in memory shared with a helper
        monkeypatch.setattr(tr, "usable_cores", lambda: shards)
        params, log = train(cfg, entries, entries, alphabet, vocab)
        # returned parameters are the quantized best snapshot: recomputing the
        # dev loss reproduces the logged value exactly
        got = mean_dev_loss(cfg.variant, entries, params, alphabet)
        assert got == log.best_dev_loss
        assert log.best_epoch >= 1
        # and they are exactly f32-representable
        assert np.array_equal(params.flat, params.flat.astype(np.float32).astype(np.float64))
        # in memory of this process's own, where inference runs at full speed
        assert not written_in_a_fork(params.flat), shards
    assert written_in_a_fork(params.like(shared=True).flat)


def test_fields_stay_views_of_the_buffer(tmp_path, tiny_harmony):
    # the optimizer updates the flat buffer: a field that stopped being a
    # view of it would silently keep stale values
    slots, alphabet, vocab, entries = tiny_harmony
    params, _ = train(make_config(max_epochs=2, seed=12), entries, entries, alphabet, vocab)
    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.POS_INDEPENDENT, alphabet, vocab)
    loaded, _, _, _ = load_checkpoint(path)
    for p in (params, loaded):
        offset = 0
        for name, arr in p.named_arrays().items():
            assert np.shares_memory(arr, p.flat), name
            assert np.array_equal(arr.ravel(), p.flat[offset:offset + arr.size]), name
            offset += arr.size
        assert offset == p.flat.size


def test_train_rejects_empty_sets(tiny_harmony):
    slots, alphabet, vocab, entries = tiny_harmony
    with pytest.raises(ConfigError):
        train(make_config(), [], entries, alphabet, vocab)
    with pytest.raises(ConfigError):
        train(make_config(), entries, [], alphabet, vocab)


def test_train_wraps_divergence(tiny_harmony, monkeypatch):
    slots, alphabet, vocab, entries = tiny_harmony
    monkeypatch.setattr(tr, "mean_dev_loss", lambda *a, **k: float("nan"))
    with pytest.raises(TrainingError, match="epoch 1"):
        train(make_config(max_epochs=2), entries, entries, alphabet, vocab)


def test_train_log_round_trip(tmp_path, tiny_harmony):
    slots, alphabet, vocab, entries = tiny_harmony
    cfg = make_config(max_epochs=2, seed=9)
    _, log = train(cfg, entries, entries, alphabet, vocab)
    path = tmp_path / "log.tsv"
    log.write(path)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines() == log.format_lines()
    # wall time stays out of the serialized form
    assert len(text.splitlines()) == len(log.records) + 2
