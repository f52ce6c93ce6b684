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
import math
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


class _Reader:
    """A whole checkpoint file in memory and a read position, so no length
    taken from a corrupt header can ask for more bytes than are left."""

    def __init__(self, raw: bytes):
        self.raw = memoryview(raw)
        self.pos = 0

    def exact(self, n: int, what: str) -> memoryview:
        if n > len(self.raw) - self.pos:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        self.pos += n
        return self.raw[self.pos - n:self.pos]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.exact(4, what))[0]

    def string(self, what: str) -> str:
        n = self.u32(f"{what} length")
        try:
            return str(self.exact(n, what), "utf-8")
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
        with open(path, "rb") as f:
            r = _Reader(f.read())
    except OSError as e:
        raise CheckpointError(f"cannot open checkpoint {path}: {e}") from None
    if r.exact(4, "magic") != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version = r.u32("format version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    tag = r.string("variant tag")
    try:
        variant = Variant.from_tag(tag)
    except ValueError as e:
        raise CheckpointError(str(e)) from None
    d = r.u32("hidden size")
    n_sym = r.u32("alphabet size")
    symbols = [r.string(f"symbol {i}") for i in range(n_sym)]
    alphabet = Alphabet(symbols)
    if alphabet.symbols != tuple(symbols):
        raise CheckpointError("alphabet listing is not sorted and unique")
    n_morph = r.u32("vocabulary size")
    idents = [r.string(f"morpheme {i}") for i in range(n_morph)]
    vocab = MorphemeVocab(idents)
    if vocab.identifiers != tuple(idents):
        raise CheckpointError("morpheme listing is not sorted and unique")
    n_tensors = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = r.string("tensor name")
        rank = r.u32(f"{name} rank")
        if rank > 4:
            raise CheckpointError(f"implausible rank {rank} for tensor {name}")
        shape = tuple(r.u32(f"{name} dim") for _ in range(rank))
        payload = r.exact(4 * math.prod(shape), f"{name} payload")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape)
    if r.pos != len(r.raw):
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
    with np.errstate(invalid="ignore"):  # a signalling NaN fails check_finite
        for name, arr in params.named_arrays().items():
            arr[...] = tensors[name]
    params.check_finite()
    return params, variant, alphabet, vocab
