"""Tests for the alignment losses (contrastive + CMD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    cmd_loss,
    cmd_loss_multi,
    node_contrastive_loss,
    node_contrastive_loss_multi,
)
from repro.nn import Tensor


def _clusters(rng, n, dim, center, spread=0.1):
    return Tensor(center + spread * rng.standard_normal((n, dim)),
                  requires_grad=True)


class TestContrastive:
    def test_separated_clusters_score_lower_than_mixed(self):
        rng = np.random.default_rng(0)
        dim = 8
        c1 = np.zeros(dim)
        c1[0] = 3.0
        c2 = np.zeros(dim)
        c2[0] = -3.0
        separated = node_contrastive_loss(
            _clusters(rng, 16, dim, c1), _clusters(rng, 16, dim, c2)
        )
        mixed = node_contrastive_loss(
            _clusters(rng, 16, dim, np.zeros(dim), spread=2.0),
            _clusters(rng, 16, dim, np.zeros(dim), spread=2.0),
        )
        assert separated.item() < mixed.item()

    def test_gradient_flows(self):
        rng = np.random.default_rng(1)
        a = _clusters(rng, 8, 4, np.zeros(4), spread=1.0)
        b = _clusters(rng, 8, 4, np.ones(4), spread=1.0)
        loss = node_contrastive_loss(a, b)
        loss.backward()
        assert a.grad is not None and np.abs(a.grad).sum() > 0

    def test_minimum_set_size_enforced(self):
        a = Tensor(np.zeros((1, 4)))
        b = Tensor(np.zeros((5, 4)))
        with pytest.raises(ValueError):
            node_contrastive_loss(a, b)

    def test_temperature_changes_loss(self):
        rng = np.random.default_rng(2)
        a = _clusters(rng, 8, 4, np.zeros(4), spread=1.0)
        b = _clusters(rng, 8, 4, np.ones(4), spread=1.0)
        hot = node_contrastive_loss(a, b, temperature=5.0).item()
        cold = node_contrastive_loss(a, b, temperature=0.1).item()
        assert hot != cold


class TestCMD:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(0)
        x = np.tanh(rng.standard_normal((400, 6)))
        loss = cmd_loss(Tensor(x[:200]), Tensor(x[200:]))
        # Finite-sample noise keeps this above 0 but it must stay small
        # compared to genuinely shifted distributions (next test).
        assert loss.item() < 0.3

    def test_shifted_distributions_larger(self):
        rng = np.random.default_rng(0)
        a = np.tanh(rng.standard_normal((200, 6)))
        b = np.tanh(rng.standard_normal((200, 6)) + 1.5)
        near = cmd_loss(Tensor(a[:100]), Tensor(a[100:])).item()
        far = cmd_loss(Tensor(a), Tensor(b)).item()
        assert far > 3 * near

    def test_first_order_only_matches_mean_gap(self):
        a = Tensor(np.full((50, 3), 0.5))
        b = Tensor(np.full((50, 3), -0.5))
        loss = cmd_loss(a, b, max_order=1)
        # ||mean gap|| = sqrt(3 * 1.0) / (b - a = 2)
        assert loss.item() == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-3)

    def test_higher_order_captures_variance_gap(self):
        rng = np.random.default_rng(0)
        narrow = Tensor(0.1 * rng.standard_normal((300, 4)))
        wide = Tensor(np.tanh(2.0 * rng.standard_normal((300, 4))))
        with_moments = cmd_loss(narrow, wide, max_order=5).item()
        mean_only = cmd_loss(narrow, wide, max_order=1).item()
        assert with_moments > mean_only

    def test_invalid_order_rejected(self):
        x = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            cmd_loss(x, x, max_order=0)

    def test_gradient_flows(self):
        rng = np.random.default_rng(3)
        a = Tensor(np.tanh(rng.standard_normal((20, 4))),
                   requires_grad=True)
        b = Tensor(np.tanh(rng.standard_normal((20, 4)) + 1.0))
        cmd_loss(a, b).backward()
        assert a.grad is not None
        assert np.abs(a.grad).sum() > 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(np.tanh(rng.standard_normal((30, 3))))
        b = Tensor(np.tanh(rng.standard_normal((30, 3)) - 0.5))
        assert cmd_loss(a, b).item() == pytest.approx(
            cmd_loss(b, a).item(), rel=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(np.tanh(rng.standard_normal((25, 3))))
        b = Tensor(np.tanh(rng.standard_normal((25, 3))))
        assert cmd_loss(a, b).item() >= 0.0


def _pair(seed, n_a=8, n_b=10, dim=4):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((n_a, dim)), requires_grad=True)
    b = Tensor(rng.standard_normal((n_b, dim)) + 0.5,
               requires_grad=True)
    return a, b


class TestContrastiveMulti:
    def test_two_groups_bitwise_equal_to_pair_form(self):
        """The K-way loss must *be* the pair loss at K=2 — forward and
        gradients bit-for-bit, so the trainer's bit-equivalence gate
        holds."""
        a1, b1 = _pair(0)
        a2, b2 = _pair(0)
        pair = node_contrastive_loss(a1, b1, temperature=0.4)
        multi = node_contrastive_loss_multi((a2, b2), temperature=0.4)
        assert np.array_equal(pair.data, multi.data)
        pair.backward()
        multi.backward()
        assert np.array_equal(a1.grad, a2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    def test_three_groups_finite_with_gradients(self):
        rng = np.random.default_rng(1)
        groups = [Tensor(rng.standard_normal((n, 5)) + shift,
                         requires_grad=True)
                  for n, shift in ((6, 0.0), (8, 1.0), (5, -1.0))]
        loss = node_contrastive_loss_multi(groups)
        assert np.isfinite(loss.item())
        loss.backward()
        for g in groups:
            assert g.grad is not None and np.abs(g.grad).sum() > 0

    def test_needs_two_groups(self):
        a = Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            node_contrastive_loss_multi((a,))


class TestCMDMulti:
    def test_two_groups_bitwise_equal_to_pair_form(self):
        a1, b1 = _pair(2)
        a2, b2 = _pair(2)
        pair = cmd_loss(a1, b1, max_order=4)
        multi = cmd_loss_multi((a2, b2), max_order=4)
        assert np.array_equal(pair.data, multi.data)
        pair.backward()
        multi.backward()
        assert np.array_equal(a1.grad, a2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    def test_vs_target_sums_pairwise_to_last_group(self):
        rng = np.random.default_rng(3)
        groups = [Tensor(np.tanh(rng.standard_normal((20, 3)) + s))
                  for s in (0.0, 0.8, -0.8)]
        multi = cmd_loss_multi(groups, max_order=3).item()
        by_hand = sum(
            cmd_loss(g, groups[-1], max_order=3).item()
            for g in groups[:-1]
        )
        assert multi == pytest.approx(by_hand, rel=1e-9)

    def test_gradients_flow_to_every_group(self):
        rng = np.random.default_rng(5)
        groups = [Tensor(np.tanh(rng.standard_normal((15, 3)) + s),
                         requires_grad=True)
                  for s in (0.0, 0.5, 1.0)]
        cmd_loss_multi(groups).backward()
        for g in groups:
            assert g.grad is not None
            assert np.abs(g.grad).sum() > 0
