"""Morpheme-embedding export: raw vectors, 2-D principal-component
projection, and cosine queries.

PCA stands in for fancier projections: it is deterministic and
dependency-free, and the raw export supports external tools. Component
signs are fixed by making each principal axis's largest-magnitude
loading positive, so output is reproducible up to nothing at all.
"""

from __future__ import annotations

import numpy as np

from .data import write_atomic
from .errors import ConfigError
from .model import ModelParams
from .vocab import MorphemeVocab

PROJECTIONS = ("none", "pca2")


def pca2(x: np.ndarray) -> np.ndarray:
    """Scores on the top two principal components of the mean-centered
    rows of x; requires at least 2 rows and 2 columns."""
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ConfigError(f"pca2 needs at least a 2x2 table, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    for i in range(2):
        pivot = np.argmax(np.abs(vt[i]))
        if vt[i, pivot] < 0:
            vt[i] = -vt[i]
            u[:, i] = -u[:, i]
    return u[:, :2] * s[:2]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def export_rows(params: ModelParams, vocab: MorphemeVocab,
                projection: str = "none") -> list[tuple[str, np.ndarray]]:
    """(identifier, vector) per morpheme; vectors are the raw embedding
    rows or their 2-D projection."""
    if projection not in PROJECTIONS:
        raise ConfigError(f"unknown projection {projection!r}; choose from {PROJECTIONS}")
    table = params.morph_emb
    if projection == "pca2":
        table = pca2(table)
    return [(vocab.identifier(i), table[i].copy()) for i in range(len(vocab))]


def write_embeddings(path, rows: list[tuple[str, np.ndarray]]) -> None:
    """Tab-separated: identifier then one column per vector component."""
    write_atomic(path, "".join(ident + "\t" + "\t".join(f"{v:.9g}" for v in vec) + "\n"
                               for ident, vec in rows))
