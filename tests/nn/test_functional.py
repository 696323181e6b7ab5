"""Tests for log-softmax, convolution, pooling and the MSE loss."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from .test_tensor import check_gradient, numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestSoftmax:
    def test_log_softmax_stable_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.log_softmax(x)
        np.testing.assert_allclose(out.data, np.log(0.5) * np.ones((1, 2)))

    def test_log_softmax_gradient(self, rng):
        check_gradient(lambda t: (F.log_softmax(t, axis=-1)[:, 0]).sum(),
                       (3, 5), rng)


class TestLosses:
    def test_mse_matches_numpy(self, rng):
        pred = Tensor(rng.standard_normal(10))
        target = Tensor(rng.standard_normal(10))
        expected = np.mean((pred.data - target.data) ** 2)
        assert F.mse_loss(pred, target).item() == pytest.approx(expected)

    def test_mse_gradient(self, rng):
        y = rng.standard_normal(6)
        check_gradient(lambda t: F.mse_loss(t, Tensor(y)), (6,), rng)


class TestConv2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        out = F.conv2d(x, w, stride=1, padding=1)
        assert out.shape == (2, 4, 8, 8)
        out2 = F.conv2d(x, w, stride=2, padding=0)
        assert out2.shape == (2, 4, 3, 3)

    def test_identity_filter(self, rng):
        """A 1x1 kernel of ones on one channel copies the input channel."""
        x = rng.standard_normal((1, 1, 5, 5))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = F.conv2d(Tensor(x), w)
        np.testing.assert_allclose(out.data, x)

    def test_matches_direct_convolution(self, rng):
        """Cross-check against a naive O(n^4) implementation."""
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros((1, 3, 6, 6))
        for o in range(3):
            for i in range(6):
                for j in range(6):
                    expected[0, o, i, j] = np.sum(
                        xp[0, :, i:i + 3, j:j + 3] * w[o]
                    )
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradient_input(self, rng):
        w = rng.standard_normal((2, 1, 3, 3))

        def fn(t):
            return (F.conv2d(t.reshape(1, 1, 5, 5), Tensor(w),
                             padding=1) ** 2.0).sum()

        check_gradient(fn, (25,), rng, atol=1e-4)

    def test_gradient_weight_and_bias(self, rng):
        x = rng.standard_normal((2, 1, 5, 5))

        def on_w(t):
            return (F.conv2d(Tensor(x), t.reshape(2, 1, 3, 3)) ** 2.0).sum()

        check_gradient(on_w, (18,), rng, atol=1e-4)

        w = rng.standard_normal((2, 1, 3, 3))

        def on_b(t):
            return (F.conv2d(Tensor(x), Tensor(w), bias=t) ** 2.0).sum()

        check_gradient(on_b, (2,), rng, atol=1e-4)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_max_pool_gradient(self, rng):
        def fn(t):
            return (F.max_pool2d(t.reshape(1, 1, 4, 4), 2) ** 2.0).sum()

        # Use distinct values to make max unambiguous.
        x = np.arange(16.0) + rng.random(16) * 0.1
        t = Tensor(x.copy(), requires_grad=True)
        fn(t).backward()
        num = numeric_grad(lambda arr: float(fn(Tensor(arr)).data), x)
        np.testing.assert_allclose(t.grad, num, atol=1e-4)

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self, rng):
        def fn(t):
            return (F.avg_pool2d(t.reshape(1, 1, 4, 4), 2) ** 2.0).sum()

        check_gradient(fn, (16,), rng, atol=1e-4)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

