"""Self-describing binary checkpoint container.

Layout, all integers little-endian:

  magic "VPCK" | u32 format version
  | string variant tag | u32 d
  | u32 alphabet size | that many strings (surface symbols, in order)
  | u32 vocab size    | that many strings (morpheme identifiers, in order)
  | u32 tensor count  | per tensor: string name, u32 rank, u32 dims...,
                        row-major little-endian f32 payload

Tensors appear in ``ModelParams.FIELD_NAMES`` order with the shapes
``param_shapes`` gives; any other list of tensors is a CheckpointError.

Strings are u32 byte length + UTF-8 bytes. Values are stored at f32;
loading widens to f64, so write -> read -> write is bitwise stable.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from .data import write_atomic
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
        buf.write(arr.astype("<f4").tobytes())
    write_atomic(path, buf.getvalue())


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
        variant = Variant(tag)
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
    shapes = param_shapes(d, n_morph, alphabet)
    if 4 * sum(math.prod(shape) for shape in shapes.values()) > len(r.raw) - r.pos:
        raise CheckpointError("truncated checkpoint: the header promises more parameters")
    n_tensors = r.u32("tensor count")
    if n_tensors != len(shapes):
        raise CheckpointError(f"expected {len(shapes)} tensors, found {n_tensors}")
    params = ModelParams(shapes)
    for name, arr in params.named_arrays().items():
        found, rank = r.string("tensor name"), r.u32("tensor rank")
        if (found, rank) != (name, arr.ndim):
            raise CheckpointError(f"expected tensor {name}, found {found} of rank {rank}")
        shape = tuple(r.u32(f"{name} dim") for _ in range(rank))
        if shape != arr.shape:
            raise CheckpointError(f"expected {name} of shape {arr.shape}, found {shape}")
        payload = r.exact(4 * arr.size, f"{name} payload")
        with np.errstate(invalid="ignore"):  # a signalling NaN fails check_finite
            arr[...] = np.frombuffer(payload, dtype="<f4").reshape(arr.shape)
    if r.pos != len(r.raw):
        raise CheckpointError("trailing bytes after last tensor")
    params.check_finite()
    return params, variant, alphabet, vocab
