"""Unit tests for the autograd engine: forward values and gradients."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, gather_rows, scatter_add_rows, stack, where
from repro.nn.ops import _unbroadcast


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar ``fn`` w.r.t. array ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(build, shape, rng, atol=1e-5):
    """Compare autograd gradient of ``build(Tensor)`` against finite diff."""
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x)
    np.testing.assert_allclose(t.grad, num, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_allclose(
            (a + b).data, np.tile(1.0 + np.arange(3.0), (2, 1))
        )

    def test_matmul(self, rng):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 2))
        out = Tensor(a) @ Tensor(b)
        np.testing.assert_allclose(out.data, a @ b)

    def test_scalar_ops(self):
        t = Tensor([2.0])
        assert (t * 3 + 1).item() == 7.0
        assert (1 - t).item() == -1.0
        assert (6 / t).item() == 3.0
        assert (t ** 2).item() == 4.0

    def test_where_matches_numpy(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
        cond = rng.random((3, 4)) > 0.5
        np.testing.assert_array_equal(
            where(cond, Tensor(a), Tensor(b)).data, np.where(cond, a, b))

    def test_reductions(self, rng):
        x = rng.standard_normal((3, 4))
        t = Tensor(x)
        np.testing.assert_allclose(t.sum(axis=0).data, x.sum(axis=0))
        np.testing.assert_allclose(t.mean(axis=1).data, x.mean(axis=1))
        np.testing.assert_allclose(t.max().data, x.max())

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_detach_cuts_graph(self):
        t = Tensor([3.0], requires_grad=True)
        out = (t.detach() * 2).sum()
        out.backward()
        assert t.grad is None


class TestUnbroadcast:
    def test_no_op(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_leading_axis(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), 4 * np.ones((2, 3)))

    def test_expanded_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 1)), 3 * np.ones((2, 1)))

    def test_mixed(self):
        g = np.ones((5, 2, 3))
        out = _unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out, 10 * np.ones((1, 3)))


class TestGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + t * 2.0).sum(), (3, 4), rng)

    def test_mul(self, rng):
        check_gradient(lambda t: (t * t).sum(), (3, 4), rng)

    def test_div(self, rng):
        check_gradient(lambda t: (1.0 / (t * t + 2.0)).sum(), (5,), rng)

    def test_pow(self, rng):
        check_gradient(lambda t: ((t * t + 1.0) ** 1.5).sum(), (4,), rng)

    def test_matmul_both_sides(self, rng):
        w = rng.standard_normal((4, 3))

        def left(t):
            return (t @ Tensor(w)).sum()

        check_gradient(left, (2, 4), rng)

        x = rng.standard_normal((2, 4))

        def right(t):
            return (Tensor(x) @ t).sum()

        check_gradient(right, (4, 3), rng)

    def test_matmul_vector(self, rng):
        v = rng.standard_normal(4)
        check_gradient(lambda t: (t @ Tensor(v)).sum(), (3, 4), rng)

    def test_broadcast_add_bias(self, rng):
        x = rng.standard_normal((5, 3))
        check_gradient(lambda t: ((Tensor(x) + t) ** 2.0).sum(), (3,), rng)

    def test_sum_axis_keepdims(self, rng):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) * t).sum(),
                       (3, 4), rng)

    def test_mean_axis(self, rng):
        check_gradient(lambda t: (t.mean(axis=0) ** 2.0).sum(), (4, 2), rng)

    def test_var(self, rng):
        check_gradient(lambda t: t.var(axis=1).sum(), (3, 5), rng)

    def test_max(self, rng):
        check_gradient(lambda t: t.max(axis=1).sum(), (3, 5), rng)

    def test_relu(self, rng):
        # Shift away from zero to avoid kink in finite differences.
        check_gradient(lambda t: (t + 0.3).relu().sum(), (7,), rng)

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh().sum(), (6,), rng)

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), (6,), rng)

    def test_exp_log(self, rng):
        check_gradient(lambda t: ((t * t + 1.0).log() + t.exp()).sum(), (5,), rng)

    def test_softplus(self, rng):
        check_gradient(lambda t: t.softplus().sum(), (6,), rng)

    def test_abs(self, rng):
        check_gradient(lambda t: (t + 0.5).abs().sum(), (6,), rng)

    def test_reshape_transpose(self, rng):
        check_gradient(lambda t: (t.reshape(6, 2).T ** 2.0).sum(), (3, 4), rng)

    def test_getitem(self, rng):
        check_gradient(lambda t: (t[1:, :2] ** 2.0).sum(), (4, 3), rng)

    def test_concatenate(self, rng):
        x = rng.standard_normal((2, 3))

        def fn(t):
            return (concatenate([t, Tensor(x)], axis=0) ** 2.0).sum()

        check_gradient(fn, (2, 3), rng)

    def test_stack(self, rng):
        def fn(t):
            return (stack([t, t * 2.0], axis=0) ** 2.0).sum()

        check_gradient(fn, (3,), rng)

    def test_where(self, rng):
        cond = np.array([True, False, True, False])

        def fn(t):
            return (where(cond, t, t * 3.0)).sum()

        check_gradient(fn, (4,), rng)

    def test_gather_rows(self, rng):
        idx = np.array([0, 2, 2, 1])

        def fn(t):
            return (gather_rows(t, idx) ** 2.0).sum()

        check_gradient(fn, (3, 4), rng)

    def test_scatter_add_rows(self, rng):
        idx = np.array([0, 1, 0, 2, 1])

        def fn(t):
            return (scatter_add_rows(t, idx, 3) ** 2.0).sum()

        check_gradient(fn, (5, 2), rng)

    def test_reuse_accumulates(self, rng):
        """A tensor used twice must receive the sum of both paths."""
        x = rng.standard_normal((3,))
        t = Tensor(x.copy(), requires_grad=True)
        out = (t * t + t * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, 2 * x + 3.0)

    def test_diamond_graph(self, rng):
        """Gradient through a diamond-shaped graph is correct."""
        x = rng.standard_normal((4,))
        t = Tensor(x.copy(), requires_grad=True)
        a = t * 2.0
        b = t + 1.0
        out = (a * b).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, 2 * (x + 1.0) + 2 * x)

    def test_deep_chain(self, rng):
        t = Tensor(rng.standard_normal((3,)), requires_grad=True)
        y = t
        for _ in range(50):
            y = y * 1.01
        y.sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 1.01 ** 50), rtol=1e-10)

    def test_clip(self, rng):
        x = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(x.copy(), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 0.0])


class TestGraphLifetime:
    def test_discarded_graph_is_freed_without_cyclic_gc(self):
        """Graph nodes hold no reference cycle: dropping the output frees
        every intermediate by reference counting alone."""
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        enabled = gc.isenabled()
        gc.disable()
        try:
            mid = (x * 2.0).exp()
            ref = weakref.ref(mid.data)
            out = mid.sum()
            del mid
            assert ref() is not None   # still held by out's graph
            del out
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
