"""Embedding export, PCA projection, cosine queries."""

from __future__ import annotations

import numpy as np
import pytest

from vecphon.embeddings import cosine, export_rows, pca2, write_embeddings
from vecphon.errors import ConfigError
from vecphon.model import init_params
from vecphon.vocab import Alphabet, MorphemeVocab


def test_export_none_gives_raw_rows(tmp_path):
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(0), 3, alphabet, 6)
    rows = export_rows(params, vocab, "none")
    assert [ident for ident, _ in rows] == ["m0", "m1", "m2"]
    for i, (_, vec) in enumerate(rows):
        assert np.array_equal(vec, params.morph_emb[i])
    path = tmp_path / "emb.tsv"
    write_embeddings(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and all(len(l.split("\t")) == 7 for l in lines)


def test_export_pca2_shape_and_errors():
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(1), 3, alphabet, 6)
    rows = export_rows(params, vocab, "pca2")
    assert all(vec.shape == (2,) for _, vec in rows)
    with pytest.raises(ConfigError):
        export_rows(params, vocab, "tsne")
    solo = init_params(np.random.default_rng(2), 1, alphabet, 6)
    with pytest.raises(ConfigError):
        export_rows(solo, MorphemeVocab(["only"]), "pca2")


def test_pca2_captures_dominant_direction():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, 1)) @ np.array([[3.0, 0.0, 0.0, 0.0]])
    x = base + 0.01 * rng.normal(size=(40, 4))
    scores = pca2(x)
    # first component recovers the planted axis up to tiny noise
    assert np.corrcoef(scores[:, 0], base[:, 0])[0, 1] > 0.999


def test_pca2_invariant_to_rotation_up_to_sign():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(25, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    s1 = pca2(x)
    s2 = pca2(x @ q)
    for axis in range(2):
        same = np.allclose(s1[:, axis], s2[:, axis], atol=1e-8)
        flipped = np.allclose(s1[:, axis], -s2[:, axis], atol=1e-8)
        assert same or flipped


def test_cosine():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine(v, v) == pytest.approx(1.0)
    assert cosine(v, -v) == pytest.approx(-1.0)
    assert cosine(v, np.zeros(3)) == 0.0
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert cosine(a, b) == pytest.approx(0.0)
