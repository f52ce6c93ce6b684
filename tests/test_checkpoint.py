"""Checkpoint container: round-trips, bitwise stability, corruption."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from vecphon.checkpoint import load_checkpoint, save_checkpoint
from vecphon.errors import CheckpointError, VecphonError
from vecphon.model import ModelParams, Variant, init_params, param_shapes
from vecphon.vocab import Alphabet, MorphemeVocab


def setup(seed=0, d=5):
    alphabet = Alphabet("abc")
    vocab = MorphemeVocab(["m0", "m1", "züge"])  # non-ASCII survives UTF-8
    params = init_params(np.random.default_rng(seed), len(vocab), alphabet, d)
    return params, alphabet, vocab


def test_round_trip_preserves_everything(tmp_path):
    params, alphabet, vocab = setup()
    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.POS_DEPENDENT, alphabet, vocab)
    p2, variant, a2, v2 = load_checkpoint(path)
    assert variant is Variant.POS_DEPENDENT
    assert a2 == alphabet and v2 == vocab
    assert p2.d == params.d
    for name, t in params.named_arrays().items():
        loaded = p2.named_arrays()[name]
        assert loaded.shape == t.shape
        # payload precision is f32
        assert np.array_equal(loaded, t.astype(np.float32).astype(np.float64))


def test_write_read_write_bitwise_stable(tmp_path):
    params, alphabet, vocab = setup(seed=1)
    p1 = tmp_path / "a.vpck"
    p2 = tmp_path / "b.vpck"
    save_checkpoint(p1, params, Variant.JOINT, alphabet, vocab)
    loaded, variant, a, v = load_checkpoint(p1)
    save_checkpoint(p2, loaded, variant, a, v)
    assert p1.read_bytes() == p2.read_bytes()


def test_corruption_detected(tmp_path):
    params, alphabet, vocab = setup(seed=2)
    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.POS_INDEPENDENT, alphabet, vocab)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.vpck"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.vpck"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "tail.vpck"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(trailing)

    bad_version = tmp_path / "ver.vpck"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_version)

    assert raw.count(b"pos-indep") == 1
    bad_tag = tmp_path / "tag.vpck"  # same length, so only the tag is wrong
    bad_tag.write_bytes(raw.replace(b"pos-indep", b"pos-indeq"))
    with pytest.raises(CheckpointError, match="unknown variant tag 'pos-indeq'"):
        load_checkpoint(bad_tag)


def test_tensor_list_must_follow_param_shapes(tmp_path):
    """The tensors must be the fields, in order, at their shapes; the
    header's sizes must fit the bytes that follow."""
    params, alphabet, vocab = setup(seed=5)
    named = params.named_arrays()
    listings = {
        "swapped": {k: named[k] for k in ("morph_emb", "char_emb", "lstm_wh", "lstm_wx",
                                         "lstm_b", "readout_w", "readout_v", "attn_t")},
        "renamed": {("attn_x" if k == "attn_t" else k): a for k, a in named.items()},
        "extra-dim": {**named, "lstm_b": named["lstm_b"][:, None]},
    }
    for label, listing in listings.items():
        path = tmp_path / f"{label}.vpck"
        # the writer lists whatever named_arrays returns
        save_checkpoint(path, SimpleNamespace(d=params.d, named_arrays=lambda: listing),
                        Variant.JOINT, alphabet, vocab)
        with pytest.raises(CheckpointError, match="expected"):
            load_checkpoint(path)

    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.JOINT, alphabet, vocab)
    raw = path.read_bytes()
    d_at = 4 + 4 + 4 + len(Variant.JOINT.value.encode())
    assert int.from_bytes(raw[d_at:d_at + 4], "little") == params.d
    big_d = tmp_path / "big-d.vpck"
    big_d.write_bytes(raw[:d_at] + (1000).to_bytes(4, "little") + raw[d_at + 4:])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(big_d)


def test_hidden_size_zero_rejected(tmp_path):
    # nothing trains d=0, but such a file must not load and spell
    _, alphabet, vocab = setup()
    path = tmp_path / "d0.vpck"
    save_checkpoint(path, ModelParams(param_shapes(0, len(vocab), alphabet)),
                    Variant.POS_INDEPENDENT, alphabet, vocab)
    with pytest.raises(CheckpointError, match="hidden size 0"):
        load_checkpoint(path)


def test_non_finite_rejected(tmp_path):
    params, alphabet, vocab = setup(seed=3)
    params.lstm_wx[0, 0] = np.inf
    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.JOINT, alphabet, vocab)
    with pytest.raises(Exception, match="non-finite"):
        load_checkpoint(path)


def test_every_truncation_and_bit_flip_loads_or_raises_vecphon_error(tmp_path):
    """No corruption of a small checkpoint may escape as anything but a
    VecphonError: header lengths are bounded by the bytes left in the file."""
    params, alphabet, vocab = setup(seed=4, d=3)
    path = tmp_path / "m.vpck"
    save_checkpoint(path, params, Variant.JOINT, alphabet, vocab)
    raw = path.read_bytes()
    corrupt = tmp_path / "corrupt.vpck"
    variants = [raw[:n] for n in range(len(raw))]
    for i in range(len(raw)):
        for bit in range(8):
            variants.append(raw[:i] + bytes([raw[i] ^ (1 << bit)]) + raw[i + 1:])
    for data in variants:
        corrupt.write_bytes(data)
        try:
            load_checkpoint(corrupt)
        except VecphonError:
            pass
