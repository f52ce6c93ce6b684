"""Optimizer arithmetic on one flat float64 parameter buffer.

The model's parameters and their gradients each live in one contiguous
buffer (``ModelParams.flat``), so an Adam update and global-norm
gradient clipping are a handful of in-place whole-buffer numpy
operations. The gradients themselves are written by the model's
hand-derived backward pass (``model.WordPass.nll_backward``).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# elements per slice of an Adam update: the slice's six operands stay in
# cache while a dozen elementwise passes run over them
ADAM_BLOCK = 1 << 15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction, updating the parameter buffer in place
    from the gradient buffer.

    The learning rate is an attribute so a scheduler can change it between
    steps. ``step`` leaves the gradient buffer as it found it;
    ``zero_grads`` clears it for the next accumulation.
    """

    def __init__(self, params: np.ndarray, grad: np.ndarray, lr: float = 1e-3):
        if params.shape != grad.shape or params.ndim != 1:
            raise ShapeError(f"gradient buffer {grad.shape} does not match "
                             f"flat parameter buffer {params.shape}")
        self.params = params
        self.grad = grad
        self.lr = lr
        self.step_count = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2, min(ADAM_BLOCK, params.size)))

    def step(self) -> None:
        """One update: p -= lr * (m / c1) / (sqrt(v / c2) + eps)."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        n = self.params.size
        for lo in range(0, n, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, n)
            p, g, m, v = (a[lo:hi] for a in (self.params, self.grad, self.m, self.v))
            s, r = self._scratch[:, :hi - lo]
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, g, out=s)
            s *= 1.0 - b2
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, c1, out=r)
            r *= self.lr
            r /= s
            p -= r

    def zero_grads(self) -> None:
        self.grad.fill(0.0)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient buffer in place so its L2 norm is at most
    ``max_norm``; returns the norm before clipping."""
    norm = float(np.sqrt(np.dot(grad, grad)))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm
