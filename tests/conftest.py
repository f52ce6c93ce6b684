"""Shared fixtures: tiny corpora and entry-building helpers."""

from __future__ import annotations

import os

# cli.main pins one BLAS thread itself, so this matters only for tests that
# call the library directly, such as criteria 4 and 5 through cli.fork_pool,
# which forks only where BLAS reads one thread. An explicit setting in the
# environment still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for synthlang

import synthlang
from vecphon.data import build_vocab
from vecphon.vocab import encode_entry


def slots_to_entries(slots, alphabet, vocab):
    return [encode_entry(alphabet, vocab, morphemes, form)
            for morphemes, form in slots]


@pytest.fixture(scope="session")
def tiny_harmony():
    """Small harmony corpus: 4 stems x 4 suffixes (2 front, 2 back)."""
    slots = [(m, f) for m, f in synthlang.harmony_slots(4, 10)
             if m[1] in ("suf0", "suf1", "suf5", "suf6")]
    alphabet, vocab = build_vocab([f for _, f in slots], [m for m, _ in slots])
    entries = slots_to_entries(slots, alphabet, vocab)
    return slots, alphabet, vocab, entries
