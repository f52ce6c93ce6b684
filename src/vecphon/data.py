"""Corpus ingestion, splitting, subsampling.

Both input formats parse to one row type, ``WeightedForm(form,
morphemes, count)``:

  - paradigm TSV: lemma <TAB> inflected form <TAB> feature bundle, one
    row per paradigm slot, each with count 1. A word has exactly two
    abstract morphemes, one keyed by the lemma and one by the full
    feature-bundle string (the bundle is atomic: no per-tag split, no tag
    reordering, so bundles differing only in tag order stay distinct).
  - weighted TSV: form <TAB> stem key <TAB> affix key or "∅" <TAB> count,
    for corpora where training sets are drawn by token frequency.

Splitting is paradigm-slot based. With the coverage policy on (the
default), every morpheme that appears in dev or test also appears in at
least one training slot; a held-out slot whose affix never trains is
unpredictable by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, ParseError, SplitError
from .vocab import Alphabet, MorphemeVocab

NO_AFFIX = "∅"


@dataclass(frozen=True)
class WeightedForm:
    form: str
    morphemes: tuple[str, ...]  # (stem,), (stem, affix) or (lemma, feature bundle)
    count: int


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    dev_frac: float = 0.1
    test_frac: float = 0.1
    seed: int = 0
    coverage: bool = True

    def __post_init__(self):
        fracs = (self.train_frac, self.dev_frac, self.test_frac)
        # written so that NaN fails both checks
        if any(not f > 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if not abs(sum(fracs) - 1.0) <= 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fracs}")


# ---------------------------------------------------------------------------
# parsing

def read_lines(path) -> list[str]:
    """A UTF-8 text file's lines, less one leading byte-order mark; a
    missing, unreadable (a directory, say) or undecodable file is a DataError."""
    try:
        with open(path, "rb") as f:  # cut here, not by utf-8-sig, so error offsets index raw
            raw = f.read().removeprefix(b"\xef\xbb\xbf")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    try:
        return raw.decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}:{lineno}: not valid UTF-8") from None


def write_atomic(path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` through a temporary file
    in the same directory, so a failed write leaves any earlier file as
    it was and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _tsv_rows(path, n_cols: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each nonblank row, which must have
    ``n_cols`` tab-separated columns and three nonempty leading fields."""
    empty = True
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise ParseError(f"{path}:{lineno}: expected {n_cols} tab-separated columns, "
                             f"got {len(cols)}")
        fields = [c.strip() for c in cols]
        if not all(fields[:3]):
            raise ParseError(f"{path}:{lineno}: empty field")
        empty = False
        yield lineno, fields
    if empty:
        raise DataError(f"{path}: no usable rows")


def parse_unimorph_tsv(path) -> list[WeightedForm]:
    """Three-column paradigm rows as ``WeightedForm(form, (lemma,
    features), 1)``; duplicates of (lemma, features) keep the first
    occurrence."""
    rows: dict[tuple[str, str], WeightedForm] = {}
    for _, (lemma, form, features) in _tsv_rows(path, 3):
        rows.setdefault((lemma, features), WeightedForm(form, (lemma, features), 1))
    return list(rows.values())


def parse_weighted_tsv(path) -> list[WeightedForm]:
    """Four-column weighted rows; affix "∅" means a bare one-morpheme word."""
    out: list[WeightedForm] = []
    for lineno, (form, stem, affix, count_s) in _tsv_rows(path, 4):
        try:
            count = int(count_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad count {count_s!r}") from None
        if not 0 <= count <= 2 ** 53:  # counts are sampled as float64, exact to 2**53
            raise ParseError(f"{path}:{lineno}: count is negative or above 2**53")
        morphemes = (stem,) if affix == NO_AFFIX else (stem, affix)
        out.append(WeightedForm(form, morphemes, count))
    return out


# ---------------------------------------------------------------------------
# token-frequency subsampling

def sample_training_set(corpus: Sequence[WeightedForm], k: int,
                        rng: np.random.Generator) -> list[WeightedForm]:
    """Draw k distinct forms without replacement, each draw proportional
    to the remaining items' token counts. Once every remaining count is
    zero the leftover draws are uniform."""
    n = len(corpus)
    if not 1 <= k <= n:
        raise ConfigError(f"cannot sample {k} items from a corpus of {n}")
    counts = np.array([w.count for w in corpus], dtype=np.float64)
    if counts.sum() <= 0:
        raise DataError("all token counts are zero")
    chosen: list[int] = []
    alive = list(range(n))
    for _ in range(k):
        weights = counts[alive]
        total = weights.sum()
        if total <= 0:
            weights = np.ones(len(alive))
            total = float(len(alive))
        r = rng.random() * total
        # the first item whose running total exceeds r; the last if none does
        choice = np.searchsorted(np.cumsum(weights), r, side="right")
        chosen.append(alive.pop(min(int(choice), len(alive) - 1)))
    return [corpus[i] for i in chosen]


# ---------------------------------------------------------------------------
# paradigm splitting

def split_paradigms(slots: Sequence[tuple[str, ...]],
                    spec: SplitSpec) -> tuple[list[int], list[int], list[int]]:
    """Partition slot indices into train/dev/test by ``spec.*_frac``.

    Slots are visited in seeded random order. Under the coverage policy
    the first slot in which each morpheme appears is forced into train,
    and dev/test fill their quotas from the remaining slots, so every
    held-out morpheme has at least one training occurrence.
    """
    n = len(slots)
    n_dev = round(spec.dev_frac * n)
    n_test = round(spec.test_frac * n)
    if n_dev < 1 or n_test < 1 or n - n_dev - n_test < 1:
        raise SplitError(f"{n} slots cannot fill a "
                         f"{spec.train_frac}/{spec.dev_frac}/{spec.test_frac} split")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)

    covered: set[str] = set()
    anchors: list[int] = []
    floaters: list[int] = []
    for i in order:
        i = int(i)
        if spec.coverage and any(m not in covered for m in slots[i]):
            anchors.append(i)
            covered.update(slots[i])
        else:
            floaters.append(i)
    if len(floaters) < n_dev + n_test:
        singles = sorted({m for i in anchors for m in slots[i]
                          if sum(m in s for s in slots) == 1})
        raise SplitError(
            "too few slots remain after covering every morpheme in train; "
            f"single-occurrence morphemes: {', '.join(singles) if singles else '(none)'}")
    dev = sorted(floaters[:n_dev])
    test = sorted(floaters[n_dev:n_dev + n_test])
    train = sorted(anchors + floaters[n_dev + n_test:])
    return train, dev, test


# ---------------------------------------------------------------------------
# vocabulary construction

def build_vocab(forms: Iterable[str],
                morpheme_seqs: Iterable[tuple[str, ...]]) -> tuple[Alphabet, MorphemeVocab]:
    """Inventories over the whole corpus (all splits), sorted, so held-out
    forms stay representable and construction is order-independent."""
    alphabet = Alphabet(c for form in forms for c in form)
    vocab = MorphemeVocab(m for seq in morpheme_seqs for m in seq)
    return alphabet, vocab


# ---------------------------------------------------------------------------
# split manifest

def write_split_manifest(directory, train: list[int], dev: list[int],
                         test: list[int], seed: int) -> None:
    """Three index files plus the seed, enough to reproduce a split exactly."""
    os.makedirs(directory, exist_ok=True)
    files = {"train.idx": train, "dev.idx": dev, "test.idx": test, "seed.txt": [seed]}
    for name, values in files.items():
        write_atomic(os.path.join(directory, name),
                     "\n".join(str(i) for i in values) + ("\n" if values else ""))


def read_split_manifest(directory, n_rows: int) -> tuple[list[int], list[int], list[int], int]:
    """The split written by ``write_split_manifest``, over a corpus of
    ``n_rows`` rows. A missing or malformed file, an index outside the
    corpus, or an index listed twice (within or across splits), is a
    DataError naming the file."""
    def read_ints(name):
        path = os.path.join(directory, name)
        try:
            return path, [int(tok) for line in read_lines(path) for tok in line.split()]
        except ValueError:
            raise DataError(f"{path}: expected one integer per line") from None

    seen: set[int] = set()
    splits = []
    for name in ("train.idx", "dev.idx", "test.idx"):
        path, idx = read_ints(name)
        for i in idx:
            if not 0 <= i < n_rows:
                raise DataError(f"{path}: index {i} out of range for {n_rows} rows")
            if i in seen:
                raise DataError(f"{path}: index {i} is listed more than once in the split")
            seen.add(i)
        splits.append(idx)
    path, seed = read_ints("seed.txt")
    if len(seed) != 1:
        raise DataError(f"{path}: expected a single integer seed")
    return splits[0], splits[1], splits[2], seed[0]
