"""Edge-case coverage for the autograd engine and layers."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, Tensor, concatenate
from repro.nn import functional as F


class TestTensorEdgeCases:
    def test_zero_size_concat_axis(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((0, 3)))
        out = concatenate([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_scalar_tensor_arithmetic(self):
        t = Tensor(3.0, requires_grad=True)
        out = t * t + 1.0
        out.backward()
        assert t.grad == pytest.approx(6.0)

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0, 5.0])

    def test_backward_through_detach_boundary_only(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0
        c = b.detach() * 3.0 + b
        c.sum().backward()
        # Only the non-detached branch contributes: d/da (2a) = 2.
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])

    def test_pow_negative_exponent(self):
        t = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        (t ** -1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [-0.25, -0.0625])

    def test_transpose_3d_axes(self):
        t = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = t.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert t.grad.shape == (2, 3, 4)

    def test_softmax_gradient_rows_sum_to_zero(self):
        t = Tensor(np.random.default_rng(0).standard_normal((3, 5)),
                   requires_grad=True)
        F.log_softmax(t, axis=1).exp()[:, 0].sum().backward()
        np.testing.assert_allclose(t.grad.sum(axis=1), 0.0, atol=1e-12)


class TestModuleEdgeCases:
    def test_module_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_empty_sequential_iteration(self):
        from repro.nn import Sequential

        seq = Sequential()
        assert len(seq) == 0
        x = Tensor(np.ones(3))
        out = seq(x)
        np.testing.assert_allclose(out.data, x.data)

    def test_mlp_single_layer(self):
        rng = np.random.default_rng(0)
        mlp = MLP([4, 2], rng)
        out = mlp(Tensor(np.ones((1, 4))))
        assert out.shape == (1, 2)

    def test_linear_1d_input(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng)
        out = layer(Tensor(np.ones(3)))
        assert out.shape == (2,)
