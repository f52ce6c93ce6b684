"""Hierarchical seed derivation.

A single master seed is split into per-purpose sub-seeds (parameter init,
dropout, latent noise, corpus sampling, ...) so that changing how one
consumer draws random numbers never perturbs the streams of the others.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def derive_seed(master: int, label: str) -> int:
    """Derive a stable sub-seed from a master seed and a purpose label."""
    if master < 0:
        raise ConfigError(f"seed must be >= 0, got {master}")
    tag = zlib.crc32(label.encode("utf-8"))
    # SeedSequence mixes the entropy words; generate_state collapses to one word.
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])


def derive_rng(master: int, label: str) -> np.random.Generator:
    """A fresh Generator for one purpose, independent of sibling purposes."""
    return np.random.default_rng(derive_seed(master, label))
