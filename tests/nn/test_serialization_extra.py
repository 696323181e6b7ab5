"""Extra nn coverage: state dicts of composite models, edge cases."""

import numpy as np

from repro.nn import (
    MLP,
    Module,
    Linear,
    Sequential,
    ReLU,
    Tensor,
)


class TwoTower(Module):
    """A module with nested submodules and a bare parameter list."""

    def __init__(self, rng):
        super().__init__()
        self.left = MLP([4, 8, 2], rng)
        self.right = Sequential(Linear(4, 4, rng), ReLU(),
                                Linear(4, 2, rng))
        self.gains = [Tensor(np.ones(2), requires_grad=True),
                      Tensor(np.zeros(2), requires_grad=True)]

    def forward(self, x):
        return self.left(x) * self.gains[0] + self.right(x) * self.gains[1]


class TestCompositeSerialization:
    def test_roundtrip_composite(self):
        rng = np.random.default_rng(0)
        model = TwoTower(rng)
        clone = TwoTower(np.random.default_rng(99))
        clone.load_state_dict(model.state_dict())
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_list_parameters_named(self):
        model = TwoTower(np.random.default_rng(0))
        names = [n for n, _ in model.named_parameters()]
        assert "gains.0" in names and "gains.1" in names

    def test_save_excludes_frozen(self, tmp_path):
        """Frozen parameters disappear from the state dict by design."""
        model = TwoTower(np.random.default_rng(0))
        model.gains[0].requires_grad = False
        state = model.state_dict()
        assert "gains.0" not in state
        assert "gains.1" in state
