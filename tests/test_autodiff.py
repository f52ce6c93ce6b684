"""Gradient and optimizer checks for the tape engine.

Every analytic gradient is compared against central finite differences
computed outside the engine; optimizer updates are compared against an
independently coded scalar reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from vecphon import autodiff as ad
from vecphon.autodiff import Adam, Tape, Tensor, clip_global_norm
from vecphon.errors import ConfigError, NumericError, ShapeError

STEP = 1e-5
RTOL = 1e-4
ATOL = 1e-7


def grads_of(f, arrays):
    """Value of f and analytic gradients with respect to each input array."""
    ts = [Tensor(a) for a in arrays]
    with Tape() as tape:
        loss = f(*ts)
        tape.backward(loss)
    return loss.item(), [t.grad_or_zero() for t in ts]


def fd_grad(f, arrays, which, h=STEP):
    """Central-difference gradient of scalar f with respect to arrays[which]."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    g = np.zeros_like(base[which])
    it = np.nditer(base[which], flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xs_hi = [a.copy() for a in base]
        xs_lo = [a.copy() for a in base]
        xs_hi[which][idx] += h
        xs_lo[which][idx] -= h
        with Tape() as tape:
            hi = f(*[Tensor(a) for a in xs_hi]).item()
        with Tape() as tape:
            lo = f(*[Tensor(a) for a in xs_lo]).item()
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def assert_close(a, b, rtol=RTOL, atol=ATOL):
    a = np.asarray(a)
    b = np.asarray(b)
    err = np.abs(a - b)
    tol = atol + rtol * np.maximum(np.abs(a), np.abs(b))
    worst = np.max(err - tol)
    assert np.all(err <= tol), f"gradient mismatch, worst excess {worst:.3e}"


def check_all_grads(f, arrays):
    _, analytic = grads_of(f, arrays)
    for i in range(len(arrays)):
        assert_close(analytic[i], fd_grad(f, arrays, i))


# ---------------------------------------------------------------------------
# forward values against hand arithmetic

def test_matmul_values_by_hand():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
    v = Tensor([1.0, 1.0])
    assert np.array_equal(ad.matmul(a, v).data, [3.0, 7.0])
    assert np.array_equal(ad.matmul(v, a).data, [4.0, 6.0])
    assert ad.matmul(v, v).item() == 2.0


def test_log_softmax_normalizes_and_is_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=9)
    with Tape():
        ls = ad.log_softmax(Tensor(x)).data
        shifted = ad.log_softmax(Tensor(x + 123.456)).data
    assert abs(np.exp(ls).sum() - 1.0) < 1e-12
    assert np.max(np.abs(ls - shifted)) < 1e-10


def test_log_softmax_survives_huge_inputs():
    x = np.array([1e4, -1e4, 0.0])
    out = ad.log_softmax(Tensor(x)).data
    assert np.all(np.isfinite(out))
    assert abs(out[0]) < 1e-12  # the dominant entry carries all the mass


def test_log_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        ad.log_softmax(Tensor([0.0, np.inf]))


def test_logsumexp_rows_matches_naive():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 6))
    out = ad.logsumexp_rows(Tensor(m)).data
    assert_close(out, np.log(np.exp(m).sum(axis=0)), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# gradients against finite differences, one op at a time

def test_add_grads():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(x + y)), [a, b])


def test_add_row_broadcast_grads():
    rng = np.random.default_rng(3)
    m, v = rng.normal(size=(3, 4)), rng.normal(size=4)
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(x + y)), [m, v])
    check_all_grads(lambda y, x: ad.tsum(ad.tanh(x + y)), [v, m])


def test_add_scalar_grads():
    rng = np.random.default_rng(4)
    m, s = rng.normal(size=(2, 3)), rng.normal(size=())
    check_all_grads(lambda x, y: ad.tsum(ad.exp(ad.mul(x + y, 0.3))), [m, s])


def test_mul_grads():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=5), rng.normal(size=5)
    check_all_grads(lambda x, y: ad.tsum(ad.mul(x, y)), [a, b])
    s = rng.normal(size=())
    check_all_grads(lambda x, y: ad.tsum(ad.mul(x, y)), [a, s])


def test_matmul_grads_all_rank_combinations():
    rng = np.random.default_rng(6)
    A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    u, w = rng.normal(size=4), rng.normal(size=3)
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(ad.matmul(x, y))), [A, B])
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(ad.matmul(x, y))), [A, u])
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(ad.matmul(x, y))), [w, A])
    check_all_grads(lambda x, y: ad.tanh(ad.matmul(x, y)), [u, u])


def test_matmul_constant_operands():
    rng = np.random.default_rng(60)
    A = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    w = rng.normal(size=3)
    # constant left operand: only the tensor side gets a gradient
    check_all_grads(lambda xv: ad.tsum(ad.tanh(ad.matmul(A, xv))), [x])
    check_all_grads(lambda Av: ad.tsum(ad.tanh(ad.matmul(Av, x))), [A])
    check_all_grads(lambda xv: ad.matmul(w, ad.tanh(ad.matmul(A, xv))), [x])
    with pytest.raises(TypeError):
        ad.matmul(A, x)


def test_narrow_grads():
    rng = np.random.default_rng(61)
    x = rng.normal(size=8)

    def f(xv):
        lo = ad.narrow(xv, 0, 3)
        hi = ad.narrow(xv, 3, 5)
        return ad.tsum(ad.mul(ad.tanh(lo), ad.sigmoid(ad.narrow(hi, 1, 3))))

    check_all_grads(f, [x])
    with pytest.raises(ShapeError):
        ad.narrow(Tensor(np.zeros(4)), 2, 3)
    with pytest.raises(ShapeError):
        ad.narrow(Tensor(np.zeros((2, 2))), 0, 1)


def test_concat_grads():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=3), rng.normal(size=5)
    check_all_grads(lambda x, y: ad.tsum(ad.sigmoid(ad.concat(x, y))), [a, b])
    m, n = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
    check_all_grads(lambda x, y: ad.tsum(ad.tanh(ad.concat(x, y, axis=1))), [m, n])


def test_stack_rows_grads():
    rng = np.random.default_rng(8)
    rows = [rng.normal(size=4) for _ in range(3)]
    check_all_grads(lambda *rs: ad.tsum(ad.tanh(ad.stack_rows(rs))), rows)


def test_lookup_and_pick_grads():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(5, 3))

    def f(t):
        row = ad.lookup(t, 2)
        return ad.pick(ad.tanh(row), 1)

    check_all_grads(f, [table])
    # untouched rows get exactly zero
    _, (g,) = grads_of(f, [table])
    assert np.all(g[[0, 1, 3, 4]] == 0.0)


def test_log_softmax_grads():
    rng = np.random.default_rng(10)
    x = rng.normal(size=7)
    w = rng.normal(size=7)
    check_all_grads(lambda a, b: ad.tsum(ad.mul(ad.log_softmax(a), b)), [x, w])
    check_all_grads(lambda a: ad.pick(ad.log_softmax(a), 3), [x])


def test_logsumexp_rows_grads():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 5))
    w = rng.normal(size=5)
    check_all_grads(lambda a, b: ad.tsum(ad.mul(ad.logsumexp_rows(a), b)), [m, w])


def test_unary_grads():
    rng = np.random.default_rng(12)
    x = rng.normal(size=6)
    check_all_grads(lambda a: ad.tsum(ad.tanh(a)), [x])
    check_all_grads(lambda a: ad.tsum(ad.sigmoid(a)), [x])
    check_all_grads(lambda a: ad.tsum(ad.exp(a)), [x])


def test_shared_input_grads_accumulate():
    # the same tensor feeding two branches must add both contributions
    rng = np.random.default_rng(13)
    x = rng.normal(size=4)
    check_all_grads(lambda a: ad.tsum(ad.mul(ad.tanh(a), ad.sigmoid(a))), [x])


def test_randomized_composite_expressions():
    rng = np.random.default_rng(14)
    for trial in range(30):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        x = rng.normal(size=k)
        W = rng.normal(size=(m, k)) * 0.7
        b = rng.normal(size=m)
        V = rng.normal(size=(m, m)) * 0.7
        tgt = int(rng.integers(0, m))

        def f(xv, Wv, bv, Vv):
            h = ad.tanh(ad.matmul(Wv, xv) + bv)
            z = ad.matmul(Vv, h)
            return ad.pick(ad.log_softmax(z), tgt)

        check_all_grads(f, [x, W, b, V])


# ---------------------------------------------------------------------------
# dropout

def test_dropout_identity_when_off():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=10))
    assert ad.dropout(x, 0.2, training=False, rng=rng) is x
    assert ad.dropout(x, 0.0, training=True, rng=rng) is x


def test_dropout_preserves_mean_and_masks_grads():
    rng = np.random.default_rng(16)
    x = np.full(20000, 2.0)
    t = Tensor(x)
    with Tape() as tape:
        out = ad.dropout(t, 0.25, training=True, rng=rng)
        tape.backward(ad.tsum(out))
    kept = out.data != 0.0
    assert abs(kept.mean() - 0.75) < 0.01
    assert np.allclose(out.data[kept], 2.0 / 0.75)
    # gradient equals the mask itself
    assert np.allclose(t.grad[kept], 1.0 / 0.75)
    assert np.all(t.grad[~kept] == 0.0)


def test_dropout_rejects_bad_rate():
    rng = np.random.default_rng(17)
    with pytest.raises(ConfigError):
        ad.dropout(Tensor([1.0]), 1.0, training=True, rng=rng)
    with pytest.raises(ConfigError):
        ad.dropout(Tensor([1.0]), -0.1, training=True, rng=rng)


# ---------------------------------------------------------------------------
# tape mechanics

def test_backward_twice_equals_backward_of_sum():
    rng = np.random.default_rng(18)
    x = rng.normal(size=5)

    t1 = Tensor(x)
    with Tape() as tape:
        la = ad.tsum(ad.tanh(t1))
        lb = ad.tsum(ad.sigmoid(t1))
        tape.backward(la)
        tape.backward(lb)
    twice = t1.grad.copy()

    t2 = Tensor(x)
    with Tape() as tape:
        tape.backward(ad.tsum(ad.tanh(t2)) + ad.tsum(ad.sigmoid(t2)))
    assert np.allclose(twice, t2.grad, rtol=0, atol=1e-15)


def test_backward_frees_intermediate_grads_and_clear_drops_records():
    t = Tensor([1.0, 2.0])
    with Tape() as tape:
        mid = ad.tanh(t)
        tape.backward(ad.tsum(mid))
        assert t.grad is not None  # leaves keep their gradient
        assert mid.grad is None    # recorded outputs are reset
        assert len(tape.records) == 2
        tape.clear()
    assert tape.records == []


def test_no_tape_means_no_recording():
    tape = Tape()
    ad.tanh(Tensor([1.0, 2.0]))  # tape not entered: nothing is recorded
    assert tape.records == []
    with tape:
        ad.tanh(Tensor([1.0, 2.0]))
    assert [e.op for e in tape.records] == ["tanh"]


def test_backward_rejects_non_scalar():
    t = Tensor([1.0, 2.0])
    with Tape() as tape:
        out = ad.tanh(t)
        with pytest.raises(ShapeError):
            tape.backward(out)


def test_shape_errors():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.mul(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError):
        ad.concat(a, b, axis=0)
    with pytest.raises(IndexError):
        ad.lookup(Tensor(np.zeros((2, 3))), 2)
    with pytest.raises(IndexError):
        ad.pick(Tensor(np.zeros(3)), 5)


def test_tape_is_deterministic():
    def run():
        rng = np.random.default_rng(19)
        t = Tensor(rng.normal(size=(4, 4)))
        v = Tensor(rng.normal(size=4))
        with Tape() as tape:
            loss = ad.tsum(ad.tanh(ad.matmul(t, v)))
            tape.backward(loss)
        return loss.item(), t.grad.copy(), v.grad.copy()

    l1, g1, h1 = run()
    l2, g2, h2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2) and np.array_equal(h1, h2)


# ---------------------------------------------------------------------------
# optimizer

def test_adam_first_step_closed_form():
    # with bias correction the first update is -lr * g / (|g| + eps')
    p = Tensor(np.array([1.0, -2.0, 0.5]))
    g = np.array([0.3, -0.1, 0.0])
    opt = Adam([p], lr=0.01)
    p.grad = g.copy()
    opt.step()
    eps_hat = opt.eps
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + eps_hat)
    assert np.allclose(p.data, expected, rtol=0, atol=1e-12)


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

    p = Tensor(np.array(3.0))
    opt = Adam([p], lr=0.05)
    for _ in range(200):
        with Tape() as tape:
            tape.backward(ad.mul(p, p))
        opt.step()
        opt.zero_grads()
        tape.clear()
    assert abs(p.item() - reference(3.0, 200, 0.05)) < 1e-12
    assert abs(p.item()) < 0.5  # and it actually descended


def test_adam_treats_missing_grad_as_zero():
    p = Tensor(np.array([1.0, 2.0]))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.data, [1.0, 2.0])


def test_adam_rejects_mismatched_grad():
    p = Tensor(np.zeros(3))
    opt = Adam([p])
    p.grad = np.zeros(4)
    with pytest.raises(ShapeError):
        opt.step()


def test_clip_global_norm():
    a, b = Tensor(np.zeros(2)), Tensor(np.zeros(2))
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([0.0, 4.0])
    norm = clip_global_norm([a, b], 5.0)
    assert norm == 5.0
    assert np.allclose(a.grad, [3.0, 0.0])  # at the threshold, untouched

    a.grad = np.array([6.0, 0.0])
    b.grad = np.array([0.0, 8.0])
    norm = clip_global_norm([a, b], 5.0)
    assert norm == 10.0
    joint = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert abs(joint - 5.0) < 1e-12

    c = Tensor(np.zeros(2))  # params without grads are skipped
    assert clip_global_norm([c], 5.0) == 0.0
