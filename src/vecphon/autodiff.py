"""Optimizer arithmetic on one flat float64 parameter buffer.

The model's parameters and their gradients each live in one contiguous
buffer (``ModelParams.flat``), so an Adam update and global-norm
gradient clipping are a handful of in-place numpy operations on it. The
gradients are written by the model's hand-derived backward pass
(``model.WordPass.nll_backward``) and cleared by the training loop.
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
    steps. ``step`` leaves the gradient buffer as it found it.
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
        """One update in Kingma & Ba's form (arXiv:1412.6980, sec. 2):
        p -= (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2))."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        rate, eps = self.lr * np.sqrt(c2) / c1, ADAM_EPS * np.sqrt(c2)
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
            np.sqrt(v, out=s)
            s += eps
            np.multiply(m, rate, out=r)
            r /= s
            p -= r


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient buffer in place so its L2 norm is at most
    ``max_norm``; returns the norm before clipping. A finite gradient
    whose squared norm overflows is measured at unit scale."""
    norm, top = float(np.sqrt(np.dot(grad, grad))), 1.0
    if norm == np.inf and np.isfinite(grad).all():  # only the squares overflowed
        top = float(np.abs(grad).max())  # so measure in units of the largest entry
        norm = float(np.linalg.norm(grad / top))
    if norm * top > max_norm and norm > 0.0:
        grad *= max_norm / top / norm
    return norm * top
