"""Tests for log-softmax, convolution, pooling and the MSE loss."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.ops import OPS

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

    @pytest.mark.parametrize("stride", [2, 1])
    @pytest.mark.parametrize("window, first_max", [
        ([[2.0, 2.0], [2.0, 2.0]], (0, 0)),
        ([[1.0, 3.0], [3.0, 3.0]], (0, 1)),
        ([[1.0, np.nan], [3.0, np.nan]], (0, 1)),
    ])
    def test_max_pool_routes_ties_to_first_maximum(self, stride, window,
                                                   first_max):
        """A tied window sends its whole gradient to its first maximum
        in row-major order, and a window holding NaN to its first NaN,
        at both the non-overlapping and the overlapping stride.

        At the op, in float32 as in float64, every other cell reads
        +0.0.  Without overlap the routed gradient keeps its bits,
        -0.0 included; with overlap a cell's gradient is a sum that
        starts at +0.0."""
        t = Tensor(np.array(window).reshape(1, 1, 2, 2), requires_grad=True)
        (F.max_pool2d(t, 2, stride) * 1.5).sum().backward()
        expected = np.zeros((2, 2))
        expected[first_max] = 1.5
        np.testing.assert_array_equal(t.grad[0, 0], expected)

        attrs = {"kernel": 2, "stride": stride}
        for dtype in (np.float64, np.float32):
            x = np.array(window, dtype=dtype).reshape(1, 1, 2, 2)
            out = OPS["max_pool2d"].forward([x], attrs, None, {})
            for upstream in (1.5, -0.0):
                g = np.full(out.shape, upstream, dtype)
                (g_x,) = OPS["max_pool2d"].backward(g, [x], out, attrs,
                                                    [True], {})
                expected = np.zeros((2, 2), dtype)
                expected[first_max] = upstream if stride == 2 \
                    else 0.0 + upstream
                assert g_x.dtype == dtype
                assert g_x[0, 0].tobytes() == expected.tobytes(), \
                    (dtype, upstream)

    @pytest.mark.parametrize("size, stride", [(5, 2), (5, 3), (4, 2),
                                              (4, 1)])
    def test_max_pool_backward_rewrites_its_buffer(self, rng, size,
                                                   stride):
        """Two backward passes through one state give the same bytes,
        though the first pass's returned buffer was overwritten in
        between: cells no window covers (a 5x5 input at kernel 2 leaves
        the last row and column out) read exactly 0 again, and every
        covered cell is written afresh."""
        attrs = {"kernel": 2, "stride": stride}
        op = OPS["max_pool2d"]
        x = rng.standard_normal((2, 3, size, size))
        out = op.forward([x], attrs, None, {})
        g = rng.standard_normal(out.shape)
        state = {}
        (g_x,) = op.backward(g, [x], out, attrs, [True], state)
        first = g_x.copy()
        g_x.fill(np.nan)
        (g_x,) = op.backward(g, [x], out, attrs, [True], state)
        assert g_x.tobytes() == first.tobytes()
        covered = (out.shape[2] - 1) * stride + attrs["kernel"]
        if covered < size:
            assert not first[:, :, covered:, :].any()
            assert not first[:, :, :, covered:].any()
        if stride == 3:
            assert not first[:, :, 2, :].any()
            assert not first[:, :, :, 2].any()

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

