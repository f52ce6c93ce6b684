"""Inventory construction, encoding round-trips, and error paths."""

from __future__ import annotations

import pytest

from vecphon.errors import DataError, VocabularyError
from vecphon.vocab import Alphabet, LexiconEntry, MorphemeVocab, encode_entry


def test_alphabet_sorted_and_reserved_layout():
    a = Alphabet("bancab")
    assert a.symbols == ("a", "b", "c", "n")
    assert a.size == 4
    assert a.bos_id == 4
    assert a.table_size == 7
    assert a.out_size == 5 and a.eos_out == 4


def test_alphabet_round_trip_is_identity():
    forms = ["ran", "running", "banana"]
    a = Alphabet("".join(forms))
    for f in forms:
        assert a.decode(a.encode(f)) == f


def test_alphabet_order_independent():
    assert Alphabet("abcd") == Alphabet("dcba")


def test_alphabet_rejects_unknown_and_reserved():
    a = Alphabet("ab")
    with pytest.raises(VocabularyError):
        a.encode("abc")
    with pytest.raises(VocabularyError):
        a.decode([a.bos_id])  # reserved ids never decode
    with pytest.raises(DataError):
        Alphabet([])


def test_morpheme_vocab_sorted_unique():
    v = MorphemeVocab(["run", "V;PST", "run", "walk"])
    assert v.identifiers == ("V;PST", "run", "walk")
    assert len(v) == 3
    assert v.index("run") == 1
    assert v.identifier(1) == "run"
    assert "walk" in v and "jog" not in v
    with pytest.raises(VocabularyError):
        v.index("jog")
    with pytest.raises(VocabularyError):
        v.identifier(3)


def test_encode_entry_validates():
    a = Alphabet("ran")
    v = MorphemeVocab(["run", "V;PST"])
    e = encode_entry(a, v, ["run", "V;PST"], "ran")
    assert e == LexiconEntry(morphemes=(1, 0), form=a.encode("ran"))
    with pytest.raises(DataError):
        encode_entry(a, v, [], "ran")
    with pytest.raises(DataError):
        encode_entry(a, v, ["run"], "")
    with pytest.raises(VocabularyError):
        encode_entry(a, v, ["jog"], "ran")
