"""The flat gradient buffer: how ``WordPass``'s backward pass writes into
it, and how ``training``'s ``Adam`` and ``clip_global_norm`` act on it
whole.

Optimizer updates are compared against an independently coded scalar
reference; the backward pass's accumulation, repeatability and layout
checks use the model's own forward pass.
"""

from __future__ import annotations

import mmap
import os
import signal

import numpy as np
import pytest

from test_model import ALL_VARIANTS, analytic_grads, pass_kwargs, word_setup
from vecphon.errors import ShapeError
from vecphon.model import Variant, WordPass
from vecphon.training import ADAM_BLOCK, ADAM_EPS, Adam, clip_global_norm
from vecphon.vocab import LexiconEntry


# ---------------------------------------------------------------------------
# the backward pass and the buffer layout

def test_backward_twice_equals_backward_of_sum():
    # gradients of several words accumulate in one buffer as a sum
    alphabet, params = word_setup(18)
    words = [LexiconEntry((0, 1), (2, 0)), LexiconEntry((3,), (1, 1, 2))]
    for variant in ALL_VARIANTS:
        both = params.like()
        separate = []
        for w in words:
            WordPass(variant, w, params, alphabet).nll_backward(both)
            separate.append(analytic_grads(variant, w, params, alphabet, {}).flat)
        assert np.allclose(both.flat, separate[0] + separate[1], rtol=0, atol=1e-15)


def test_word_pass_is_deterministic():
    # the same word, parameters, noise and dropout draws give a bitwise
    # identical log-probability and gradient
    alphabet, params = word_setup(19, d=4)
    entry = LexiconEntry((1, 0, 3), (2, 0, 1, 1))
    for variant in ALL_VARIANTS:
        runs = []
        for _ in range(2):
            kwargs = pass_kwargs(params, 19, dropout=0.3)
            word = WordPass(variant, entry, params, alphabet, **kwargs)
            grads = params.like()
            word.nll_backward(grads)
            runs.append((word.logprob, grads.flat))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


def test_backward_repeats_and_leaves_the_forward_pass():
    # the backward pass keeps no gradient state of its own and changes
    # neither the parameters nor the recorded forward pass: run again, it
    # gives exactly the same gradient, and into the same buffer it adds
    # that gradient once more
    alphabet, params = word_setup(20)
    before = params.flat.copy()
    entry = LexiconEntry((2, 1), (0, 3, 3))
    for variant in ALL_VARIANTS:
        word = WordPass(variant, entry, params, alphabet, **pass_kwargs(params, 20))
        logprob, h = word.logprob, word.h.copy()
        grads = params.like()
        word.nll_backward(grads)
        again = params.like()
        word.nll_backward(again)
        assert np.array_equal(again.flat, grads.flat)
        word.nll_backward(grads)
        assert np.allclose(grads.flat, 2.0 * again.flat, rtol=0, atol=1e-15)
        assert word.logprob == logprob and np.array_equal(word.h, h)
        assert np.array_equal(params.flat, before)


def test_backward_rejects_a_buffer_of_another_layout():
    # the backward pass writes only into a gradient buffer laid out like
    # its parameters; another layout would take the updates silently
    alphabet, params = word_setup(21)
    word = WordPass(Variant.JOINT, LexiconEntry((0,), (1,)), params, alphabet)
    for other in (word_setup(21, n_morphs=5)[1], word_setup(21, d=4)[1]):
        grads = other.like()
        with pytest.raises(ShapeError):
            word.nll_backward(grads)
        assert np.all(grads.flat == 0.0)


def test_shape_errors():
    alphabet, params = word_setup(22)
    with pytest.raises(ShapeError):
        Adam(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(IndexError):
        WordPass(Variant.POS_INDEPENDENT, LexiconEntry((4,), (0,)), params, alphabet)
    with pytest.raises(IndexError):
        WordPass(Variant.POS_INDEPENDENT, LexiconEntry((0,), (alphabet.table_size,)),
                 params, alphabet)


def test_fields_tile_the_flat_buffer():
    # each field is a slice of the flat buffer: the fields tile it in
    # FIELD_NAMES order with no gap or overlap, so a gradient written
    # through a field of `like()` lands in that slice of the gradient buffer
    alphabet, params = word_setup(23)
    grads = params.like()
    WordPass(Variant.POS_DEPENDENT, LexiconEntry((0, 1), (2, 3)), params,
             alphabet).nll_backward(grads)
    for p in (params, grads):
        offset = 0
        for name in p.FIELD_NAMES:
            arr = getattr(p, name)
            assert arr.base is p.flat or arr.base is p.flat.base, name
            assert arr.ctypes.data == p.flat.ctypes.data + 8 * offset, name
            offset += arr.size
        assert offset == p.flat.size
    assert np.array_equal(grads.flat, np.concatenate(
        [getattr(grads, name).ravel() for name in grads.FIELD_NAMES]))


# ---------------------------------------------------------------------------
# optimizer and clipping on flat buffers

def test_adam_first_step_closed_form():
    # with bias correction the first update is -lr * g / (|g| + eps')
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 0.0])
    opt = Adam(p, g.copy(), lr=0.01)
    opt.step()
    eps_hat = ADAM_EPS
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + eps_hat)
    assert np.allclose(p, expected, rtol=0, atol=1e-12)


def test_adam_matches_scalar_reference_on_quadratic():
    # independent reference implementation, scalar arithmetic only
    def reference(x0, steps, lr):
        x, m, v = x0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, steps + 1):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        return x

    # a buffer longer than one Adam block, every element its own quadratic
    x0 = np.linspace(-3.0, 3.0, 40001)
    p = x0.copy()
    g = np.zeros_like(p)
    opt = Adam(p, g, lr=0.05)
    for _ in range(200):
        np.multiply(p, 2.0, out=g)
        opt.step()
    for i in (0, 1, 16384, 20000, 40000):
        assert abs(p[i] - reference(x0[i], 200, 0.05)) < 1e-12
    assert abs(p[0]) < 0.5  # and it actually descended


def test_adam_treats_missing_grad_as_zero():
    p = np.array([1.0, 2.0])
    opt = Adam(p, np.zeros(2), lr=0.1)
    opt.step()
    assert np.array_equal(p, [1.0, 2.0])


def test_adam_rejects_mismatched_grad():
    with pytest.raises(ShapeError):
        Adam(np.zeros(3), np.zeros(4))


def shared(values):
    """A copy of ``values`` in memory that forked children write into too."""
    flat = np.frombuffer(mmap.mmap(-1, 8 * values.size), count=values.size)
    flat[:] = values
    return flat


def record_forks(monkeypatch):
    """The pids that os.fork returns from then on, in this process."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
@pytest.mark.parametrize("size", [2 * ADAM_BLOCK + 1, ADAM_BLOCK // 3, 5 * ADAM_BLOCK + 6],
                         ids=["odd", "below-one-block", "several-blocks"])
def test_adam_helper_steps_to_the_same_bytes(monkeypatch, size):
    # a forked helper updating the second half writes what this process
    # alone writes over the whole buffer, clipped or not, and close leaves
    # neither the helper nor a pipe behind
    rng = np.random.default_rng(size)
    start = rng.standard_normal(size)
    grads = [rng.standard_normal(size), rng.standard_normal(size) / (10 * np.sqrt(size))]
    pids, fds = record_forks(monkeypatch), open_fds()
    steps = {False: [], True: []}  # the parameter bytes after each step
    for helper in (False, True):
        params, grad = shared(start), shared(np.zeros(size))
        opt = Adam(params, grad, lr=0.01, max_norm=1.0, helper=helper)
        try:
            norms = []
            for g in grads:
                grad[:] = g
                norms.append(opt.step())
                steps[helper].append(params.tobytes())
        finally:
            opt.close()
        assert norms[0] > 1.0 > norms[1]  # a clipped step, then an unclipped one
    assert steps[True] == steps[False]
    assert len(pids) == 1  # the helper run's one fork
    with pytest.raises(ChildProcessError):  # reaped by close
        os.waitpid(pids[0], os.WNOHANG)
    assert open_fds() == fds


def test_adam_forks_its_helper_once_the_moments_exist(monkeypatch):
    # a failure before the fork leaves no helper blocked on its pipe
    params, grad = shared(np.zeros(8)), shared(np.zeros(8))
    pids, zeros, test_process = record_forks(monkeypatch), np.zeros, os.getpid()

    def out_of_memory(*args, **kwargs):
        if os.getpid() == test_process:  # a helper forked first allocates its own
            raise MemoryError
        return zeros(*args, **kwargs)

    with monkeypatch.context() as no_memory:
        no_memory.setattr(np, "zeros", out_of_memory)
        with pytest.raises(MemoryError):
            Adam(params, grad, helper=True)
    alive = [pid for pid in pids if os.waitpid(pid, os.WNOHANG) == (0, 0)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert alive == []


def clip(grad, max_norm):
    """Scale grad in place by clip_global_norm's factor, as Adam.step does;
    the norm before clipping."""
    norm, factor = clip_global_norm(grad, max_norm)
    grad *= factor
    return norm


def test_clip_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])
    norm = clip(g, 5.0)
    assert norm == 5.0
    assert np.array_equal(g, [3.0, 0.0, 0.0, 4.0])  # at the threshold, untouched

    g[:] = [6.0, 0.0, 0.0, 8.0]
    norm = clip(g, 5.0)
    assert norm == 10.0
    assert abs(np.sqrt((g ** 2).sum()) - 5.0) < 1e-12
    assert np.allclose(g, [3.0, 0.0, 0.0, 4.0], rtol=0, atol=1e-15)

    assert clip(np.zeros(2), 5.0) == 0.0  # zero gradients stay zero


def test_clip_global_norm_keeps_direction_when_squared_norm_overflows():
    g = np.array([1e200, -3e200, 0.5])
    with np.errstate(over="ignore"):  # np.dot(g, g) overflows
        norm = clip(g, 5.0)
    assert abs(norm - np.sqrt(10.0) * 1e200) <= 1e-12 * norm
    assert abs(np.linalg.norm(g) - 5.0) <= 1e-12 * 5.0
    direction = np.array([1.0, -3.0, 0.5e-200]) / np.sqrt(10.0)
    assert np.allclose(g / 5.0, direction, rtol=1e-12, atol=0)

    g = np.full(4, 1e308)  # the norm itself is beyond the float range
    with np.errstate(over="ignore"):
        assert clip(g, 5.0) == np.inf
    assert np.allclose(g, np.full(4, 2.5), rtol=1e-12, atol=0)


def test_clip_global_norm_lets_non_finite_gradients_diverge():
    for bad in (np.inf, np.nan):
        g = np.array([1.0, bad, 2.0])
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(clip(g, 5.0))
        assert not np.isfinite(g).all()
