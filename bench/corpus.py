"""Seeded synthetic corpora for the benchmark.

The language is the two-way vowel-harmony language of the test suite:
a word is stem + suffix, a stem is a consonant skeleton C1 _ C2 whose
vowel slot surfaces front or back to agree with the suffix's harmony
class, and a suffix is a consonant plus a class-matching vowel. Every
suffixed word has five symbols, so inputs made from different seeds
differ in content but not in the amount of work per word. The seed
picks the stem skeletons, the vowel heights, the suffix consonants and
classes, the token counts and which stems also occur bare.
"""

from __future__ import annotations

import itertools
import random

CONSONANTS = "tklsmnr"
FRONT = {"A": "e", "I": "i"}
BACK = {"A": "a", "I": "o"}
NO_AFFIX = "∅"


def harmony_language(rng: random.Random, n_stems: int):
    """All slots of n_stems stems x 10 suffixes as (stem id, suffix id,
    surface form), plus each stem's bare form, spelled with its front
    vowel, as a dict stem id -> surface form."""
    skeletons = rng.sample(list(itertools.product(CONSONANTS, CONSONANTS)), n_stems)
    heights = ["A", "I"] * (n_stems // 2) + ["A"] * (n_stems % 2)
    rng.shuffle(heights)
    # as in the test language, each class has one suffix per consonant of
    # a shared set of five, with vowel heights alternating, so no two
    # suffixes spell alike and every seed gives the same ambiguity structure
    consonants = rng.sample(CONSONANTS, 5)
    forms = [(cls, c + (FRONT if cls == "front" else BACK)["AI"[j % 2]])
             for cls in ("front", "back") for j, c in enumerate(consonants)]
    rng.shuffle(forms)
    suffixes = [(f"suf{j}", cls, surface) for j, (cls, surface) in enumerate(forms)]

    slots = []
    bare = {}
    for i, ((c1, c2), height) in enumerate(zip(skeletons, heights)):
        stem = f"stem{i}"
        bare[stem] = c1 + FRONT[height] + c2
        for suf, cls, surface in suffixes:
            vowel = (FRONT if cls == "front" else BACK)[height]
            slots.append((stem, suf, c1 + vowel + c2 + surface))
    return slots, bare


def zipf_counts(n: int, rng: random.Random) -> list[int]:
    """Token counts inverse in a shuffled rank, smallest 1."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    return [max(1, round(200.0 / (1 + r))) for r in ranks]


def write_paradigm_tsv(path, slots) -> None:
    """lemma <TAB> form <TAB> features, lemma = stem id, features = suffix id."""
    with open(path, "w", encoding="utf-8") as f:
        for stem, suf, form in slots:
            f.write(f"{stem}\t{form}\t{suf}\n")


def weighted_rows(slots, bare, rng: random.Random):
    """(form, stem, affix or ∅, count) rows: every slot, plus the bare
    form of a seeded half of the stems."""
    rows = [(form, stem, suf) for stem, suf, form in slots]
    for stem in rng.sample(list(bare), len(bare) // 2):
        rows.append((bare[stem], stem, NO_AFFIX))
    rng.shuffle(rows)
    return [row + (c,) for row, c in zip(rows, zipf_counts(len(rows), rng))]


def write_weighted_tsv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for form, stem, affix, count in rows:
            f.write(f"{form}\t{stem}\t{affix}\t{count}\n")


def write_requests(path, requests) -> None:
    """A `predict --input --gold` file: morphemes, then the gold form,
    tab-separated, one word per line."""
    with open(path, "w", encoding="utf-8") as f:
        for morphemes, gold in requests:
            f.write("\t".join(morphemes) + "\t" + gold + "\n")
