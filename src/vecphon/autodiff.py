"""Minimal reverse-mode automatic differentiation on numpy arrays.

The engine is tape-based: while a Tape is active (as a context manager),
every operation appends a record with a backward closure. Replaying the
records in reverse order is a valid reverse topological sweep because
operations execute eagerly, so an output is always recorded after all of
its inputs. With no active tape the same operations run as plain numpy
computations, which is what evaluation-only code paths use.

Only the operations the decoder model actually needs are provided; there
is no general broadcasting beyond adding a row vector to each row of a
matrix or a scalar to anything. Values are float64 throughout.

A tape and the tensors it records are confined to one thread; independent
tapes on separate threads never interact (the active tape is thread-local).
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_STATE = threading.local()


def _active_tape():
    return getattr(_STATE, "tape", None)


class Tensor:
    """A shape-tagged float64 array with a lazily allocated gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def grad_or_zero(self) -> np.ndarray:
        """The gradient slot, or zeros if the tensor was unreachable."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # Arithmetic sugar; constants on either side stay constants (no grad).
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -np.asarray(other, dtype=np.float64))

    def __matmul__(self, other):
        return matmul(self, other)


class TapeEntry(NamedTuple):
    op: str
    output: Tensor
    backward: Callable[[], None]


class Tape:
    """Ordered record of operations for one or more forward passes.

    Operations execute eagerly, so every output is recorded after its
    inputs and a reverse sweep of the records is topologically safe.
    ``clear`` drops the records; gradient slots of leaf tensors such as
    parameters are left to their owner (``Adam.zero_grads``).
    """

    def __init__(self):
        self.records: list[TapeEntry] = []

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("a tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _STATE.tape = None
        return False

    def record(self, op: str, output: Tensor, backward: Callable[[], None]) -> None:
        self.records.append(TapeEntry(op, output, backward))

    def backward(self, loss: Tensor) -> None:
        backward(loss, self)

    def clear(self) -> None:
        self.records.clear()


def backward(loss: Tensor, tape: Tape) -> None:
    """Add the gradient of ``loss`` into the slots of every leaf it reaches.

    After the sweep every recorded output's slot is reset to None, so
    intermediate adjoints never leak into a later pass and two backward
    passes over different losses add up exactly like one pass over their
    sum. Leaves the loss cannot reach keep their slot (None reads as zeros).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.grad = np.ones_like(loss.data)
    for entry in reversed(tape.records):
        if entry.output.grad is not None:
            entry.backward()
    for entry in tape.records:
        entry.output.grad = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _record(op, out, backward_fn):
    tape = _active_tape()
    if tape is not None:
        tape.record(op, out, backward_fn)
    return out


def _const(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# elementwise

def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # Undo the two supported broadcasts: row vector over matrix, scalar over all.
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    return g.sum(axis=0)


def _check_addable(sa, sb):
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
        return
    raise ShapeError(f"cannot combine shapes {sa} and {sb}")


def add(a: Tensor, b) -> Tensor:
    """Pointwise sum; allows matrix + row vector and anything + scalar."""
    if isinstance(b, Tensor):
        _check_addable(a.data.shape, b.data.shape)
        out = Tensor(a.data + b.data)

        def back():
            g = out.grad
            _accum(a, _reduce_to(g, a.data.shape))
            _accum(b, _reduce_to(g, b.data.shape))

        return _record("add", out, back)

    c = _const(b)
    _check_addable(a.data.shape, c.shape)
    out = Tensor(a.data + c)

    def back_const():
        _accum(a, _reduce_to(out.grad, a.data.shape))

    return _record("add", out, back_const)


def mul(a: Tensor, b) -> Tensor:
    """Pointwise product; shapes must match exactly unless one side is scalar."""
    if isinstance(b, Tensor):
        sa, sb = a.data.shape, b.data.shape
        if sa != sb and sa != () and sb != ():
            raise ShapeError(f"cannot multiply shapes {sa} and {sb}")
        out = Tensor(a.data * b.data)

        def back():
            g = out.grad
            _accum(a, _reduce_to(g * b.data, a.data.shape))
            _accum(b, _reduce_to(g * a.data, b.data.shape))

        return _record("mul", out, back)

    c = _const(b)
    if c.shape not in ((), a.data.shape):
        raise ShapeError(f"cannot multiply shapes {a.data.shape} and {c.shape}")
    out = Tensor(a.data * c)

    def back_const():
        _accum(a, _reduce_to(out.grad * c, a.data.shape))

    return _record("mul", out, back_const)


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))

    def back():
        _accum(x, (1.0 - out.data * out.data) * out.grad)

    return _record("tanh", out, back)


def sigmoid(x: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-x.data)))

    def back():
        _accum(x, out.data * (1.0 - out.data) * out.grad)

    return _record("sigmoid", out, back)


def exp(x: Tensor) -> Tensor:
    out = Tensor(np.exp(x.data))

    def back():
        _accum(x, out.data * out.grad)

    return _record("exp", out, back)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    out = Tensor(x.data.sum())

    def back():
        _accum(x, np.broadcast_to(out.grad, x.data.shape))

    return _record("tsum", out, back)


# ---------------------------------------------------------------------------
# linear algebra and shape ops

def matmul(a, b) -> Tensor:
    """Matrix product with numpy's 1-D conventions.

    (m,k)@(k,n) -> (m,n); a 1-D left operand acts as a row, a 1-D right
    operand as a column, and the corresponding output axis is dropped.
    Either operand may be a plain array (treated as a constant), but at
    least one must be a Tensor.
    """
    at = a if isinstance(a, Tensor) else None
    bt = b if isinstance(b, Tensor) else None
    if at is None and bt is None:
        raise TypeError("matmul needs at least one Tensor operand")
    ad = at.data if at is not None else _const(a)
    bd = bt.data if bt is not None else _const(b)
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul needs rank 1 or 2, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {ad.shape} vs {bd.shape}")
    out = Tensor(ad @ bd)

    def back():
        a2 = ad if ad.ndim == 2 else ad[None, :]
        b2 = bd if bd.ndim == 2 else bd[:, None]
        g2 = out.grad.reshape(a2.shape[0], b2.shape[1])
        if at is not None:
            ga = g2 @ b2.T
            _accum(at, ga if ad.ndim == 2 else ga[0])
        if bt is not None:
            gb = a2.T @ g2
            _accum(bt, gb if bd.ndim == 2 else gb[:, 0])

    return _record("matmul", out, back)


def concat(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; the other dimensions must agree."""
    sa, sb = a.data.shape, b.data.shape
    if len(sa) != len(sb):
        raise ShapeError(f"concat rank mismatch: {sa} vs {sb}")
    for d in range(len(sa)):
        if d != axis and sa[d] != sb[d]:
            raise ShapeError(f"concat shapes disagree off-axis: {sa} vs {sb}")
    out = Tensor(np.concatenate([a.data, b.data], axis=axis))
    split = sa[axis]

    def back():
        g = out.grad
        ga, gb = np.split(g, [split], axis=axis)
        _accum(a, ga)
        _accum(b, gb)

    return _record("concat", out, back)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix, one per row."""
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    d = rows[0].data.shape
    for r in rows:
        if r.data.shape != d or r.data.ndim != 1:
            raise ShapeError(f"stack_rows needs equal 1-D rows, got {r.data.shape} and {d}")
    out = Tensor(np.stack([r.data for r in rows]))

    def back():
        g = out.grad
        for j, r in enumerate(rows):
            _accum(r, g[j])

    return _record("stack_rows", out, back)


def narrow(x: Tensor, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) of a 1-D tensor."""
    if x.data.ndim != 1:
        raise ShapeError(f"narrow needs a 1-D tensor, got {x.data.shape}")
    if start < 0 or length < 1 or start + length > x.data.shape[0]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for length {x.data.shape[0]}")
    out = Tensor(x.data[start:start + length].copy())

    def back():
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:start + length] += out.grad

    return _record("narrow", out, back)


def lookup(table: Tensor, index: int) -> Tensor:
    """Row ``index`` of a 2-D table; backward scatters into that row only."""
    if table.data.ndim != 2:
        raise ShapeError(f"lookup needs a 2-D table, got {table.data.shape}")
    n = table.data.shape[0]
    if not 0 <= index < n:
        raise IndexError(f"lookup index {index} out of range for table of {n} rows")
    out = Tensor(table.data[index].copy())

    def back():
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[index] += out.grad

    return _record("lookup", out, back)


def pick(x: Tensor, index: int) -> Tensor:
    """One component of a 1-D tensor, as a 0-d tensor."""
    if x.data.ndim != 1:
        raise ShapeError(f"pick needs a 1-D tensor, got {x.data.shape}")
    if not 0 <= index < x.data.shape[0]:
        raise IndexError(f"pick index {index} out of range for length {x.data.shape[0]}")
    out = Tensor(x.data[index])

    def back():
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[index] += out.grad

    return _record("pick", out, back)


# ---------------------------------------------------------------------------
# normalizers

def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log softmax of a 1-D tensor."""
    if x.data.ndim != 1:
        raise ShapeError(f"log_softmax needs a 1-D tensor, got {x.data.shape}")
    if not np.all(np.isfinite(x.data)):
        raise NumericError("log_softmax received non-finite input")
    shifted = x.data - x.data.max()
    out = Tensor(shifted - np.log(np.exp(shifted).sum()))

    def back():
        g = out.grad
        _accum(x, g - np.exp(out.data) * g.sum())

    return _record("log_softmax", out, back)


def logsumexp_rows(m: Tensor) -> Tensor:
    """Column-wise log-sum-exp of a 2-D tensor: out[v] = log sum_j exp(m[j, v])."""
    if m.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows needs a 2-D tensor, got {m.data.shape}")
    top = m.data.max(axis=0)
    out = Tensor(top + np.log(np.exp(m.data - top).sum(axis=0)))

    def back():
        _accum(m, np.exp(m.data - out.data) * out.grad)

    return _record("logsumexp_rows", out, back)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Evaluation mode (or rate 0) is the identity, so no rescaling is ever
    needed at prediction time.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * mask)

    def back():
        _accum(x, out.grad * mask)

    return _record("dropout", out, back)


# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam with bias correction, updating parameters in place.

    The learning rate is an attribute so a scheduler can change it between
    steps; the moment accumulators always match their parameter shapes.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update from each parameter's gradient slot (None reads as zeros)."""
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad_or_zero()
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grads(self) -> None:
        for p in self.params:
            p.grad = None


def clip_global_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradient slots so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= factor
    return norm
