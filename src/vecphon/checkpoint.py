"""Self-describing binary checkpoint container.

Layout, all integers little-endian:

  magic "VPCK" | u32 format version
  | string variant tag | u32 d
  | u32 alphabet size | that many strings (surface symbols, in order)
  | u32 vocab size    | that many strings (morpheme identifiers, in order)
  | u32 tensor count  | per tensor: string name, u32 rank, u32 dims...,
                        row-major little-endian f32 payload

Strings are u32 byte length + UTF-8 bytes. Values are stored at f32;
loading widens to f64, so write -> read -> write is bitwise stable.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .errors import CheckpointError
from .model import ModelParams, Variant, param_shapes
from .vocab import Alphabet, MorphemeVocab

MAGIC = b"VPCK"
FORMAT_VERSION = 1


def _write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))


def _write_string(f, s: str) -> None:
    raw = s.encode("utf-8")
    _write_u32(f, len(raw))
    f.write(raw)


def _read_exact(f, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return raw


def _read_u32(f, what: str) -> int:
    return struct.unpack("<I", _read_exact(f, 4, what))[0]


def _read_string(f, what: str) -> str:
    n = _read_u32(f, f"{what} length")
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"bad UTF-8 in {what}") from None


def save_checkpoint(path, params: ModelParams, variant: Variant,
                    alphabet: Alphabet, vocab: MorphemeVocab) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    _write_u32(buf, FORMAT_VERSION)
    _write_string(buf, variant.value)
    _write_u32(buf, params.d)
    _write_u32(buf, alphabet.size)
    for s in alphabet.symbols:
        _write_string(buf, s)
    _write_u32(buf, len(vocab))
    for m in vocab.identifiers:
        _write_string(buf, m)
    named = params.named_arrays()
    _write_u32(buf, len(named))
    for name, arr in named.items():
        _write_string(buf, name)
        _write_u32(buf, arr.ndim)
        for dim in arr.shape:
            _write_u32(buf, dim)
        payload = np.ascontiguousarray(arr, dtype="<f4")
        buf.write(payload.tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_checkpoint(path) -> tuple[ModelParams, Variant, Alphabet, MorphemeVocab]:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}") from None
    with f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        version = _read_u32(f, "format version")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format version {version}")
        tag = _read_string(f, "variant tag")
        try:
            variant = Variant.from_tag(tag)
        except ValueError as e:
            raise CheckpointError(str(e)) from None
        d = _read_u32(f, "hidden size")
        n_sym = _read_u32(f, "alphabet size")
        symbols = [_read_string(f, f"symbol {i}") for i in range(n_sym)]
        alphabet = Alphabet(symbols)
        if alphabet.symbols != tuple(symbols):
            raise CheckpointError("alphabet listing is not sorted and unique")
        n_morph = _read_u32(f, "vocabulary size")
        idents = [_read_string(f, f"morpheme {i}") for i in range(n_morph)]
        vocab = MorphemeVocab(idents)
        if vocab.identifiers != tuple(idents):
            raise CheckpointError("morpheme listing is not sorted and unique")
        n_tensors = _read_u32(f, "tensor count")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            name = _read_string(f, "tensor name")
            rank = _read_u32(f, f"{name} rank")
            if rank > 4:
                raise CheckpointError(f"implausible rank {rank} for tensor {name}")
            shape = tuple(_read_u32(f, f"{name} dim") for _ in range(rank))
            n_vals = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(f, 4 * n_vals, f"{name} payload")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        if f.read(1):
            raise CheckpointError("trailing bytes after last tensor")

    missing = [n for n in ModelParams.FIELD_NAMES if n not in tensors]
    if missing:
        raise CheckpointError(f"missing tensors: {', '.join(missing)}")
    extra = [n for n in tensors if n not in ModelParams.FIELD_NAMES]
    if extra:
        raise CheckpointError(f"unexpected tensors: {', '.join(extra)}")

    expected = param_shapes(d, n_morph, alphabet)
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointError(f"tensor {name} has shape {tensors[name].shape}, "
                                  f"expected {shape}")
    params = ModelParams(expected)
    for name, arr in params.named_arrays().items():
        arr[...] = tensors[name]
    params.check_finite()
    return params, variant, alphabet, vocab
