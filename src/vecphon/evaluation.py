"""Metrics and significance: exact-match accuracy, mean edit distance,
per-symbol surprisal, resample aggregation, paired permutation test.

``predict`` spells and scores; ``evaluate`` is ``predict`` plus edit
distances and aggregation. ``predict`` decodes all known requests, and
scores their gold forms teacher-forced, in one call of
``model.spell_and_score``, which runs the LSTM once per distinct prefix.
Surprisal counts EOS in both the log-probability sum and the length
normalizer. An item with an out-of-vocabulary morpheme is not decoded and
scores as a failure (edit distance = gold length); it and a gold form that
does not encode have no surprisal, and are left out of the surprisal mean.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, VocabularyError
from .model import ModelParams, Variant, spell_and_score
from .seeds import derive_rng, derive_seed
from .vocab import Alphabet, MorphemeVocab, encode_entry


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost insert/delete/substitute distance, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1,
                         cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


@dataclass
class PredictionRecord:
    morphemes: tuple[str, ...]
    gold: str | None
    predicted: str
    edit_distance: int | None  # filled in by evaluate
    surprisal: float | None  # None without an encodable gold form
    unknown: bool = False  # a morpheme is out of vocabulary; not decoded


@dataclass
class EvalReport:
    accuracy: float  # percent of exact matches, 0..100
    mean_levenshtein: float
    mean_surprisal: float
    n_items: int
    n_unknown: int
    items: list[PredictionRecord] = field(default_factory=list)


def predict(variant: Variant, params: ModelParams, alphabet: Alphabet,
            vocab: MorphemeVocab, requests: Sequence[tuple[tuple[str, ...], str | None]],
            max_len: int) -> list[PredictionRecord]:
    """Spell each (morpheme identifiers, gold form or None) request by
    greedy decoding at the noise-free mean, with the surprisal of its gold
    form if one is given and encodes. A request with an out-of-vocabulary
    morpheme is flagged unknown and not decoded."""
    records = [PredictionRecord(tuple(m), gold, "", None, None,
                                any(x not in vocab for x in m)) for m, gold in requests]
    known = [r for r in records if not r.unknown]
    forms = [None] * len(known)
    for j, r in enumerate(known):
        with contextlib.suppress(DataError, VocabularyError):  # no gold, or it does not encode
            forms[j] = encode_entry(alphabet, vocab, r.morphemes, r.gold or "").form
    spelled, logprobs = spell_and_score(variant, [[vocab.index(m) for m in r.morphemes]
                                                  for r in known], forms, params, alphabet, max_len)
    for r, symbols, form, lp in zip(known, spelled, forms, logprobs.tolist()):
        r.predicted = alphabet.decode(symbols)
        if form is not None:
            r.surprisal = -lp / (len(form) + 1)
    return records


def evaluate(variant: Variant, params: ModelParams, alphabet: Alphabet,
             vocab: MorphemeVocab, items: Sequence[tuple[tuple[str, ...], str]],
             max_len: int) -> EvalReport:
    """``predict`` on (morpheme identifiers, gold form) pairs, with each
    record's edit distance filled in and the metrics aggregated. Pure in
    (params, items): repeated calls agree."""
    if not items:
        raise DataError("empty evaluation set")
    records = predict(variant, params, alphabet, vocab, items, max_len)
    for r in records:
        r.edit_distance = len(r.gold) if r.unknown else levenshtein(r.predicted, r.gold)
    scored = [r.surprisal for r in records if r.surprisal is not None]
    n = len(records)
    return EvalReport(
        accuracy=100.0 * sum(r.predicted == r.gold for r in records) / n,
        mean_levenshtein=sum(r.edit_distance for r in records) / n,
        mean_surprisal=sum(scored) / len(scored) if scored else float("nan"),
        n_items=n,
        n_unknown=sum(r.unknown for r in records),
        items=records,
    )


# ---------------------------------------------------------------------------
# resample aggregation

def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and sample standard deviation (n-1 denominator)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        return float(v.mean()), 0.0
    return float(v.mean()), float(v.std(ddof=1))


@dataclass
class CurvePoint:
    variant: Variant
    k: int
    acc_mean: float
    acc_sd: float
    mld_mean: float
    mld_sd: float
    nll_mean: float
    nll_sd: float


def resample_eval(protocol: Callable[[Variant, int, int], EvalReport],
                  variants: Sequence[Variant], sizes: Sequence[int], n_resamples: int,
                  seed: int, map=map) -> list[CurvePoint]:
    """Expected-performance estimate: for each variant and training size
    k, run the protocol (subsample, train, evaluate) n_resamples times
    under derived seeds, the same for every variant, and aggregate each
    metric as mean and sample deviation. The (variant, k, seed) cells go
    through one ``map``, variant-major, which must keep their order."""
    if n_resamples < 2:
        raise ConfigError(f"need at least 2 resamples, got {n_resamples}")
    cells = [(v, k, r) for v in variants for k in sizes for r in range(n_resamples)]
    reports = iter(map(protocol, [v for v, _, _ in cells], [k for _, k, _ in cells],
                       [derive_seed(seed, f"resample-k{k}-r{r}") for _, k, r in cells]))
    points = []
    for variant in variants:
        for k in sizes:
            runs = [next(reports) for _ in range(n_resamples)]
            acc = mean_sd([r.accuracy for r in runs])
            mld = mean_sd([r.mean_levenshtein for r in runs])
            nll = mean_sd([r.mean_surprisal for r in runs])
            points.append(CurvePoint(variant, k, acc[0], acc[1], mld[0], mld[1], nll[0], nll[1]))
    return points


# ---------------------------------------------------------------------------
# significance

def paired_permutation_test(a: Sequence[float], b: Sequence[float],
                            n_permutations: int = 10000, seed: int = 0) -> float:
    """Two-sided p-value for the mean paired difference under random sign
    flips. Exact enumeration of all 2^n sign patterns when n <= 20,
    otherwise Monte Carlo with add-one smoothing."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"paired vectors must match, got {a.shape} and {b.shape}")
    if n_permutations < 1000:
        raise ConfigError(f"need at least 1000 permutations, got {n_permutations}")
    diffs = a - b
    n = diffs.size
    obs = 0.0
    for d in diffs:
        obs += d

    if n <= 20:
        # doubling enumeration; entry 0 accumulates the all-plus pattern in
        # the same left-to-right order as obs, so the identity permutation
        # matches it bit for bit
        sums = np.zeros(1)
        for d in diffs:
            sums = np.concatenate([sums + d, sums - d])
        return float(np.count_nonzero(np.abs(sums) >= abs(obs)) / sums.size)

    rng = derive_rng(seed, "paired-permutation")
    signs = rng.choice((1.0, -1.0), size=(n_permutations, n))
    perm = signs @ diffs
    # tolerance guards the self-permutation tie under reordered summation
    tol = 1e-12 * max(1.0, abs(obs))
    extreme = int(np.count_nonzero(np.abs(perm) >= abs(obs) - tol))
    return (1 + extreme) / (1 + n_permutations)
