"""Optimizer state_dict round-trips and resumed-trajectory equivalence."""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def make_problem(seed=0):
    """A tiny least-squares problem: model, data, loss closure."""
    rng = np.random.default_rng(seed)
    layer = Linear(6, 3, rng)
    x = Tensor(rng.standard_normal((16, 6)))
    y = rng.standard_normal((16, 3))

    def loss_step(optimizer):
        optimizer.zero_grad()
        out = layer(x)
        loss = ((out - Tensor(y)) ** 2).sum() * (1.0 / y.size)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    return layer, loss_step


def weights(layer):
    return [p.data.copy() for p in layer.parameters()]


class TestStateDictRoundTrip:
    def test_adam_round_trip(self, rng):
        layer, loss_step = make_problem()
        opt = Adam(layer.parameters(), lr=3e-3, betas=(0.8, 0.95),
                   eps=1e-9, weight_decay=1e-5)
        for _ in range(4):
            loss_step(opt)
        state = opt.state_dict()
        assert state["kind"] == "Adam"
        assert state["t"] == 4
        fresh = Adam(layer.parameters(), lr=1.0)
        fresh.load_state_dict(state)
        assert fresh._t == 4
        assert (fresh.lr, fresh.beta1, fresh.beta2, fresh.eps,
                fresh.weight_decay) == (3e-3, 0.8, 0.95, 1e-9, 1e-5)
        for mine, theirs in zip(opt._m + opt._v, fresh._m + fresh._v):
            np.testing.assert_array_equal(mine, theirs)

    def test_state_is_a_copy(self, rng):
        layer, loss_step = make_problem()
        opt = Adam(layer.parameters(), lr=3e-3)
        loss_step(opt)
        state = opt.state_dict()
        state["m"][0][...] = 1e9
        assert not np.any(opt._m[0] == 1e9)

    def test_kind_mismatch_rejected(self, rng):
        layer, _ = make_problem()
        adam = Adam(layer.parameters(), lr=0.1)
        state = dict(adam.state_dict(), kind="SGD")
        with pytest.raises(ValueError, match="SGD"):
            adam.load_state_dict(state)

    def test_shape_mismatch_rejected_before_mutation(self, rng):
        layer, loss_step = make_problem()
        opt = Adam(layer.parameters(), lr=3e-3)
        loss_step(opt)
        state = opt.state_dict()
        state["m"][0] = np.zeros((2, 2))
        other = Adam(layer.parameters(), lr=0.5)
        before_t, before_lr = other._t, other.lr
        with pytest.raises(ValueError, match="shape"):
            other.load_state_dict(state)
        assert (other._t, other.lr) == (before_t, before_lr)

    def test_length_mismatch_rejected(self, rng):
        layer, _ = make_problem()
        opt = Adam(layer.parameters(), lr=3e-3)
        state = opt.state_dict()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError, match="entries"):
            opt.load_state_dict(state)

    def test_adam_none_moments_rejected(self, rng):
        layer, _ = make_problem()
        opt = Adam(layer.parameters(), lr=3e-3)
        state = opt.state_dict()
        state["m"][0] = None
        with pytest.raises(ValueError, match="None"):
            opt.load_state_dict(state)


class TestResumedTrajectory:
    @pytest.mark.parametrize("make_opt", [
        lambda params: Adam(params, lr=3e-3),
    ], ids=["adam"])
    def test_resume_matches_uninterrupted(self, make_opt):
        """Snapshot after k steps + fresh optimizer + restore must land
        on exactly the uninterrupted weights (the checkpoint contract)."""
        layer_a, step_a = make_problem(seed=5)
        opt_a = make_opt(layer_a.parameters())
        losses_a = [step_a(opt_a) for _ in range(8)]

        layer_b, step_b = make_problem(seed=5)
        opt_b = make_opt(layer_b.parameters())
        losses_b = [step_b(opt_b) for _ in range(4)]
        snapshot = opt_b.state_dict()
        # "Crash": a brand-new optimizer over the same (live) params.
        opt_b2 = make_opt(layer_b.parameters())
        opt_b2.load_state_dict(snapshot)
        losses_b += [step_b(opt_b2) for _ in range(4)]

        assert losses_b == losses_a
        for wa, wb in zip(weights(layer_a), weights(layer_b)):
            np.testing.assert_array_equal(wa, wb)
