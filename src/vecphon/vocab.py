"""Symbol and morpheme inventories.

An Alphabet maps surface symbols (single characters) to contiguous
indices. Past the surface range it places BOS, fed to the decoder before
the first character, and EOS, the stopping symbol of the output
distribution. Reserved indices live above the surface range, so no data
string can ever contain them.

Index conventions used everywhere else:
  - character-embedding table rows: 0..n-1 surface, n BOS; rows n+1 and
    n+2 are reserved and never read (they keep the checkpoint layout and
    the initialization stream unchanged);
  - output distribution entries:    0..n-1 surface, n EOS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, VocabularyError


class Alphabet:
    """Bijective symbol↔index map over a fixed, sorted symbol inventory."""

    def __init__(self, symbols: Iterable[str]):
        uniq = sorted(set(symbols))
        if not uniq:
            raise DataError("alphabet needs at least one surface symbol")
        for s in uniq:
            if len(s) != 1:
                raise VocabularyError(f"surface symbols are single characters, got {s!r}")
        self.symbols: tuple[str, ...] = tuple(uniq)
        self._index = {s: i for i, s in enumerate(self.symbols)}

    @property
    def size(self) -> int:
        return len(self.symbols)

    # embedding-table layout
    @property
    def bos_id(self) -> int:
        return self.size

    @property
    def table_size(self) -> int:
        return self.size + 3

    # output-distribution layout
    @property
    def out_size(self) -> int:
        return self.size + 1

    @property
    def eos_out(self) -> int:
        return self.size

    def encode(self, form: str) -> tuple[int, ...]:
        try:
            return tuple(self._index[c] for c in form)
        except KeyError as e:
            raise VocabularyError(f"symbol {e.args[0]!r} not in alphabet") from None

    def decode(self, indices: Sequence[int]) -> str:
        out = []
        for i in indices:
            if not 0 <= i < self.size:
                raise VocabularyError(f"symbol index {i} outside surface range 0..{self.size - 1}")
            out.append(self.symbols[i])
        return "".join(out)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"


class MorphemeVocab:
    """Sorted inventory of abstract-morpheme identifiers (lemma keys and
    feature-bundle keys share one namespace)."""

    def __init__(self, identifiers: Iterable[str]):
        uniq = sorted(set(identifiers))
        if not uniq:
            raise DataError("morpheme vocabulary is empty")
        for m in uniq:
            if not m:
                raise VocabularyError("empty morpheme identifier")
        self.identifiers: tuple[str, ...] = tuple(uniq)
        self._index = {m: i for i, m in enumerate(self.identifiers)}

    def __len__(self) -> int:
        return len(self.identifiers)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._index

    def index(self, identifier: str) -> int:
        try:
            return self._index[identifier]
        except KeyError:
            raise VocabularyError(f"unknown morpheme {identifier!r}") from None

    def __eq__(self, other):
        return isinstance(other, MorphemeVocab) and self.identifiers == other.identifiers

    def __repr__(self):
        return f"MorphemeVocab({len(self.identifiers)} morphemes)"


@dataclass(frozen=True)
class LexiconEntry:
    """One word: its abstract-morpheme indices and its encoded surface form."""

    morphemes: tuple[int, ...]
    form: tuple[int, ...]


def encode_entry(alphabet: Alphabet, vocab: MorphemeVocab,
                 morphemes: Sequence[str], surface: str) -> LexiconEntry:
    """Validating constructor: everything in-vocabulary, surface nonempty."""
    if not morphemes:
        raise DataError(f"word {surface!r} has no morphemes")
    if not surface:
        raise DataError(f"empty surface form for morphemes {tuple(morphemes)}")
    return LexiconEntry(
        morphemes=tuple(vocab.index(m) for m in morphemes),
        form=alphabet.encode(surface),
    )
