"""Tests for Module/layers and the Adam optimiser."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Tensor,
)
from repro.nn import functional as F


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(5, 3, rng)
        out = layer(Tensor(rng.standard_normal((4, 5))))
        assert out.shape == (4, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_deterministic_init(self):
        a = Linear(4, 4, np.random.default_rng(0))
        b = Linear(4, 4, np.random.default_rng(0))
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestMLP:
    def test_structure_and_forward(self, rng):
        mlp = MLP([8, 16, 4], rng, activation="relu")
        out = mlp(Tensor(rng.standard_normal((2, 8))))
        assert out.shape == (2, 4)

    def test_final_tanh_bounds_output(self, rng):
        mlp = MLP([8, 16, 4], rng, final_activation="tanh")
        out = mlp(Tensor(100.0 * rng.standard_normal((5, 8))))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_rejects_single_size(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)


class TestModuleTree:
    def test_named_parameters_nested(self, rng):
        model = Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 2, rng))
        names = [n for n, _ in model.named_parameters()]
        assert "modules.0.weight" in names
        assert "modules.2.bias" in names
        assert len(names) == 4

    def test_zero_grad(self, rng):
        model = Linear(3, 1, rng)
        out = model(Tensor(rng.standard_normal((2, 3)))).sum()
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_load_state_dict_rejects_mismatch(self, rng):
        model = Linear(3, 2, rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((3, 2))})
        with pytest.raises(ValueError):
            model.load_state_dict({"weight": np.zeros((2, 3)),
                                   "bias": np.zeros(2)})


class TestOptimisers:
    def _loss(self, model, x, y):
        return F.mse_loss(model(x), y)

    def test_adam_fits_linear_regression(self, rng):
        model = Linear(4, 1, rng)
        opt = Adam(model.parameters(), lr=0.05)
        x = Tensor(rng.standard_normal((64, 4)))
        true_w = np.array([[1.0], [-2.0], [0.5], [3.0]])
        y = Tensor(x.data @ true_w + 0.7)
        for _ in range(300):
            opt.zero_grad()
            loss = self._loss(model, x, y)
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.weight.data, true_w, atol=0.05)
        np.testing.assert_allclose(model.bias.data, [0.7], atol=0.05)

    def test_clip_grad_norm(self, rng):
        model = Linear(3, 1, rng)
        out = (model(Tensor(100.0 * np.ones((8, 3)))) ** 2.0).sum()
        out.backward()
        opt = Adam(model.parameters(), lr=0.1)
        norm_before = opt.clip_grad_norm(1.0)
        assert norm_before > 1.0
        total = sum(float((p.grad ** 2).sum()) for p in model.parameters())
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-6)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([])
