"""Embedding export, PCA projection, cosine queries."""

from __future__ import annotations

import numpy as np
import pytest

from vecphon.checkpoint import save_checkpoint
from vecphon.cli import main
from vecphon.evaluation import cosine, pca2
from vecphon.model import Variant, init_params
from vecphon.vocab import Alphabet, MorphemeVocab


def export(tmp_path, params, vocab, projection):
    """Exit status and, on success, rows of ``export-embeddings`` on a
    checkpoint of ``params``."""
    tmp_path.mkdir(exist_ok=True)
    ckpt = tmp_path / "m.vpck"
    save_checkpoint(ckpt, params, Variant.POS_INDEPENDENT, Alphabet("ab"), vocab)
    rc = main(["export-embeddings", "--checkpoint", str(ckpt), "--projection", projection,
               "--out-dir", str(tmp_path)])
    if rc:
        return rc, None
    text = (tmp_path / "embeddings.tsv").read_text(encoding="utf-8")
    return rc, [line.split("\t") for line in text.splitlines()]


def test_export_none_gives_raw_rows(tmp_path):
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(0), 3, alphabet, 6)
    rc, rows = export(tmp_path, params, vocab, "none")
    assert rc == 0
    assert [ident for ident, *_ in rows] == ["m0", "m1", "m2"]
    for i, (_, *vec) in enumerate(rows):  # the checkpoint holds f32 values
        assert np.array_equal(np.array(vec, dtype=np.float32),
                              params.morph_emb[i].astype(np.float32))
    assert len(rows) == 3 and all(len(row) == 7 for row in rows)


def test_export_pca2_shape_and_errors(tmp_path):
    alphabet = Alphabet("ab")
    vocab = MorphemeVocab(["m0", "m1", "m2"])
    params = init_params(np.random.default_rng(1), 3, alphabet, 6)
    rc, rows = export(tmp_path / "pca2", params, vocab, "pca2")
    assert rc == 0
    assert all(len(row) == 1 + 2 for row in rows)
    assert export(tmp_path / "tsne", params, vocab, "tsne")[0] == 2
    solo = init_params(np.random.default_rng(2), 1, alphabet, 6)
    assert export(tmp_path / "solo", solo, MorphemeVocab(["only"]), "pca2")[0] == 2


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
