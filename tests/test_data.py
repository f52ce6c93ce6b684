"""Ingestion, decomposition, weighted sampling, and splitting contracts."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from vecphon.data import (NO_AFFIX, SplitSpec, WeightedForm, build_vocab,
                          parse_unimorph_tsv, parse_weighted_tsv, read_split_manifest,
                          sample_training_set, split_paradigms,
                          write_split_manifest)
from vecphon.errors import ConfigError, DataError, ParseError, SplitError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing

def test_parse_unimorph_basic(tmp_path):
    p = write(tmp_path / "u.tsv", "run\tran\tV;PST\nrun\truns\tV;3;SG;PRS\n")
    rows = parse_unimorph_tsv(p)
    assert rows[0] == WeightedForm("ran", ("run", "V;PST"), 1)
    assert len(rows) == 2


def test_parse_unimorph_crlf_and_blank_lines(tmp_path):
    p = write(tmp_path / "u.tsv", "run\tran\tV;PST\r\n\r\nsee\tsaw\tV;PST\r\n")
    rows = parse_unimorph_tsv(p)
    assert [r.morphemes[0] for r in rows] == ["run", "see"]
    # a leading byte-order mark, as Windows editors write, is not part of the lemma
    p = write(tmp_path / "bom.tsv", "\ufeffkedi\tkediler\tN;PL\r\nkedi\tkedi\tN;SG\r\n")
    assert [r.morphemes[0] for r in parse_unimorph_tsv(p)] == ["kedi", "kedi"]


def test_parse_unimorph_dedup_keeps_first(tmp_path):
    p = write(tmp_path / "u.tsv",
              "run\tran\tV;PST\nrun\trunned\tV;PST\nrun\tran\tV;NFIN\n")
    rows = parse_unimorph_tsv(p)
    assert len(rows) == 2
    assert rows[0].form == "ran"  # first occurrence wins


def test_parse_unimorph_errors(tmp_path):
    with pytest.raises(ParseError, match=":2:"):
        parse_unimorph_tsv(write(tmp_path / "a.tsv", "a\tb\tc\nx\ty\n"))
    with pytest.raises(ParseError, match=":1:"):
        parse_unimorph_tsv(write(tmp_path / "b.tsv", "a\t\tc\n"))
    with pytest.raises(DataError):
        parse_unimorph_tsv(write(tmp_path / "c.tsv", "\n\n"))
    with pytest.raises(DataError):
        parse_unimorph_tsv(tmp_path / "missing.tsv")
    (tmp_path / "d.tsv").write_bytes(b"a\tb\tc\nx\t\xff\tz\n")
    with pytest.raises(DataError, match="d.tsv:2: not valid UTF-8"):
        parse_unimorph_tsv(tmp_path / "d.tsv")
    (tmp_path / "e.tsv").write_bytes(b"\xef\xbb\xbfa\tb\tc\nx\t\xff\tz\n")
    with pytest.raises(DataError, match="e.tsv:2: not valid UTF-8"):
        parse_unimorph_tsv(tmp_path / "e.tsv")


def test_parse_unimorph_bundle_is_one_morpheme(tmp_path):
    p = write(tmp_path / "u.tsv", "run\tran\tV;PST\nsee\tsaw\tV;PST\nx\ty\tPST;V\n")
    run, see, x = parse_unimorph_tsv(p)
    assert run.morphemes == ("run", "V;PST")
    # shared bundles across lemmas give the same key; tag order matters
    assert see.morphemes[1] == "V;PST"
    assert x.morphemes[1] != "V;PST"


def test_parse_weighted(tmp_path):
    p = write(tmp_path / "w.tsv",
              "ran\trun\tPST\t17\nrun\trun\t∅\t40\n")
    rows = parse_weighted_tsv(p)
    assert rows[0] == WeightedForm("ran", ("run", "PST"), 17)
    assert rows[1] == WeightedForm("run", ("run",), 40)
    p = write(tmp_path / "bom.tsv", "\ufeffkediler\tkedi\tPL\t3\n")
    assert parse_weighted_tsv(p) == [WeightedForm("kediler", ("kedi", "PL"), 3)]


def test_parse_weighted_errors(tmp_path):
    with pytest.raises(ParseError, match="columns"):
        parse_weighted_tsv(write(tmp_path / "a.tsv", "x\ty\t3\n"))
    with pytest.raises(ParseError, match="count"):
        parse_weighted_tsv(write(tmp_path / "b.tsv", "x\ty\tz\tmany\n"))
    # a count is sampled as a float64, which holds every integer up to 2**53
    for i, count in enumerate((-1, 2 ** 53 + 1, 10 ** 400)):
        with pytest.raises(ParseError, match=rf"c{i}\.tsv:1: count is negative or above 2\*\*53$"):
            parse_weighted_tsv(write(tmp_path / f"c{i}.tsv", f"x\ty\tz\t{count}\n"))
    top = parse_weighted_tsv(write(tmp_path / "c.tsv", f"x\ty\tz\t{2 ** 53}\n"))
    assert top[0].count == 2 ** 53
    (tmp_path / "d.tsv").write_bytes(b"\xffx\ty\tz\t1\n")
    with pytest.raises(DataError, match="d.tsv:1: not valid UTF-8"):
        parse_weighted_tsv(tmp_path / "d.tsv")
    (tmp_path / "e.tsv").write_bytes(b"\xef\xbb\xbfx\ty\tz\t1\n\xff\n")
    with pytest.raises(DataError, match="e.tsv:2: not valid UTF-8"):
        parse_weighted_tsv(tmp_path / "e.tsv")


# ---------------------------------------------------------------------------
# weighted sampling without replacement

def corpus_of(counts):
    return [WeightedForm(f"w{i}", (f"m{i}",), c) for i, c in enumerate(counts)]


def test_sample_whole_corpus_and_bounds():
    corpus = corpus_of([5, 1, 3])
    got = sample_training_set(corpus, 3, np.random.default_rng(0))
    assert sorted(w.form for w in got) == ["w0", "w1", "w2"]
    for k in (0, 4):
        with pytest.raises(ConfigError):
            sample_training_set(corpus, k, np.random.default_rng(0))
    with pytest.raises(DataError):
        sample_training_set(corpus_of([0, 0]), 1, np.random.default_rng(0))


def test_sample_uniform_counts_match_uniform_frequencies():
    corpus = corpus_of([2, 2, 2, 2])
    rng = np.random.default_rng(1)
    firsts = np.zeros(4)
    trials = 40_000
    for _ in range(trials):
        firsts[int(sample_training_set(corpus, 1, rng)[0].form[1])] += 1
    assert np.all(np.abs(firsts / trials - 0.25) < 3 * np.sqrt(0.25 * 0.75 / trials))


def test_sample_first_draw_proportional_to_counts():
    # counts (2,1,1): first item drawn half the time
    corpus = corpus_of([2, 1, 1])
    rng = np.random.default_rng(2)
    hits = 0
    trials = 100_000
    for _ in range(trials):
        hits += sample_training_set(corpus, 1, rng)[0].form == "w0"
    assert abs(hits / trials - 0.5) < 0.01


def test_sample_inclusion_matches_exact_enumeration():
    # corpus (4,2,1), k=2: enumerate the sequential process exactly
    counts = [4.0, 2.0, 1.0]
    corpus = corpus_of([int(c) for c in counts])
    include = np.zeros(3)
    for first in range(3):
        p_first = counts[first] / sum(counts)
        rest = [j for j in range(3) if j != first]
        denom = sum(counts[j] for j in rest)
        for second in rest:
            p = p_first * counts[second] / denom
            include[first] += p
            include[second] += p
    rng = np.random.default_rng(3)
    got = np.zeros(3)
    trials = 100_000
    for _ in range(trials):
        for w in sample_training_set(corpus, 2, rng):
            got[int(w.form[1])] += 1
    got /= trials
    sigma = np.sqrt(include * (1 - include) / trials)
    assert np.all(np.abs(got - include) <= 3 * sigma + 1e-12)


def test_sample_zero_count_tail_is_uniform():
    # after the weighted items run out, leftovers are drawn uniformly
    corpus = corpus_of([3, 0, 0])
    rng = np.random.default_rng(4)
    seen_second = set()
    for _ in range(200):
        picked = sample_training_set(corpus, 2, rng)
        assert picked[0].form == "w0"  # only item with mass
        seen_second.add(picked[1].form)
    assert seen_second == {"w1", "w2"}


def test_sample_draws_pinned_for_one_seed():
    # the forms a per-draw running-sum (roulette) loop draws for these seeds
    corpus = corpus_of([3, 0, 5, 1, 0, 2, 7, 0, 4])
    got = sample_training_set(corpus, 9, np.random.default_rng(11))
    assert [w.form for w in got] == ["w0", "w6", "w5", "w2", "w3", "w8", "w1", "w4", "w7"]
    got = sample_training_set(corpus, 4, np.random.default_rng(12))
    assert [w.form for w in got] == ["w2", "w8", "w0", "w5"]


def test_sample_deterministic_per_rng_state():
    corpus = corpus_of([5, 4, 3, 2, 1])
    a = sample_training_set(corpus, 3, np.random.default_rng(9))
    b = sample_training_set(corpus, 3, np.random.default_rng(9))
    assert [w.form for w in a] == [w.form for w in b]


# ---------------------------------------------------------------------------
# paradigm splitting

def toy_slots(n_lemmas=10, n_feats=4):
    return [(f"lem{i}", f"feat{j}") for i in range(n_lemmas) for j in range(n_feats)]


def test_split_sizes_and_coverage():
    slots = toy_slots()  # 40 slots
    train, dev, test = split_paradigms(slots, SplitSpec(seed=5))
    assert (len(train), len(dev), len(test)) == (32, 4, 4)
    assert sorted(train + dev + test) == list(range(40))
    covered = {m for i in train for m in slots[i]}
    for i in dev + test:
        assert set(slots[i]) <= covered


def test_split_deterministic_and_disjoint():
    slots = toy_slots(6, 5)
    a = split_paradigms(slots, SplitSpec(seed=11))
    b = split_paradigms(slots, SplitSpec(seed=11))
    assert a == b
    c = split_paradigms(slots, SplitSpec(seed=12))
    assert a != c  # a different seed moves something, generically
    train, dev, test = a
    assert not (set(train) & set(dev) or set(train) & set(test) or set(dev) & set(test))


def test_split_errors():
    with pytest.raises(SplitError):
        split_paradigms([("lem0", "feat0")], SplitSpec())
    # every slot introduces a new morpheme: nothing can be held out
    unique = [(f"lem{i}", f"feat{i}") for i in range(40)]
    with pytest.raises(SplitError, match="lem0"):
        split_paradigms(unique, SplitSpec())


def test_split_without_coverage_leaves_quota_alone():
    slots = toy_slots(5, 4)
    train, dev, test = split_paradigms(slots, SplitSpec(seed=3, coverage=False))
    assert (len(train), len(dev), len(test)) == (16, 2, 2)
    # nothing is anchored: dev, test and train are consecutive slices of the order
    order = [int(i) for i in np.random.default_rng(3).permutation(len(slots))]
    assert dev == sorted(order[:2])
    assert test == sorted(order[2:4])
    assert train == sorted(order[4:])


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(train_frac=0.9, dev_frac=0.2, test_frac=0.1)
    with pytest.raises(ConfigError):
        SplitSpec(train_frac=1.0, dev_frac=-0.1, test_frac=0.1)
    # NaN compares false both ways; inf breaks the sum
    for bad in (float("nan"), float("inf"), float("-inf")):
        for fracs in ((0.8, bad, 0.1), (bad, 0.1, 0.1)):
            with pytest.raises(ConfigError):
                SplitSpec(*fracs)


# ---------------------------------------------------------------------------
# vocabulary and manifest

def test_build_vocab_covers_all_splits_and_is_order_free():
    forms = ["tekte", "takta"]
    seqs = [("stem0", "suf0"), ("stem0", "suf5")]
    a1, v1 = build_vocab(forms, seqs)
    a2, v2 = build_vocab(list(reversed(forms)), list(reversed(seqs)))
    assert a1 == a2 and v1 == v2
    assert a1.symbols == ("a", "e", "k", "t")
    assert v1.identifiers == ("stem0", "suf0", "suf5")
    for f in forms:
        assert a1.decode(a1.encode(f)) == f


def test_manifest_round_trip(tmp_path):
    train, dev, test = [0, 2, 4], [1], [3, 5]
    write_split_manifest(tmp_path / "split", train, dev, test, seed=77)
    got = read_split_manifest(tmp_path / "split", 6)
    assert got == (train, dev, test, 77)
    with pytest.raises(DataError):
        read_split_manifest(tmp_path / "nowhere", 6)


def test_failed_write_leaves_the_earlier_file_and_no_temporary(tmp_path, monkeypatch):
    # every output goes through write_atomic: a write that stops half-way
    # (a full disk) must leave the file it replaces byte-identical
    import vecphon.data as data_module
    from vecphon.checkpoint import save_checkpoint
    from vecphon.model import Variant, init_params
    from vecphon.training import TrainLog

    alphabet, vocab = build_vocab(["ab"], [("m0", "m1")])
    params = init_params(np.random.default_rng(0), len(vocab), alphabet, 3)
    writers = {
        "plain.txt": lambda p: data_module.write_atomic(p, "x" * 100 + "\n"),
        "checkpoint.vpck": lambda p: save_checkpoint(p, params, Variant.JOINT, alphabet, vocab),
        "trainlog.tsv": lambda p: TrainLog().write(p),
    }
    for name, write_file in writers.items():
        write_file(tmp_path / name)
    before = {name: (tmp_path / name).read_bytes() for name in writers}
    real_open = open

    class HalfWritten:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(data_module, "open", lambda path, mode: HalfWritten(real_open(path, mode)),
                        raising=False)
    params.flat += 1.0
    for name, write_file in writers.items():
        with pytest.raises(OSError):
            write_file(tmp_path / name)
        assert (tmp_path / name).read_bytes() == before[name], name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
