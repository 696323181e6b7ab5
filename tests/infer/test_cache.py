"""Weight digest + feature cache invalidation contract.

The cache key must change after *any* parameter update — an optimizer
step, ``load_state_dict``, or a raw ``.data`` write to a frozen
(ablation-pinned) tensor — so stale features can never be served."""

import numpy as np

from repro.infer import FeatureCache, named_tensors, weight_digest
from repro.nn import Adam, Linear, MLP, Module, Tensor


class _Shell(Module):
    """Module with nested submodules, a list, and a frozen tensor."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.head = Linear(4, 3, rng=rng)
        self.blocks = [Linear(3, 3, rng=rng), MLP([3, 8, 2], rng=rng)]
        self.frozen = Tensor(np.ones(5), requires_grad=False)


class _FakeDesign:
    def __init__(self, name, node="7nm", content=None):
        self.name = name
        self.node = node
        self._content = content if content is not None \
            else f"{name}@{node}"

    def content_digest(self):
        return self._content


class TestNamedTensors:
    def test_walks_nested_modules_lists_and_frozen(self):
        names = dict(named_tensors(_Shell()))
        assert "head.weight" in names
        assert "blocks.0.weight" in names
        assert any(n.startswith("blocks.1.") for n in names)
        assert "frozen" in names  # requires_grad=False still included

    def test_superset_of_named_parameters(self):
        shell = _Shell()
        tensors = dict(named_tensors(shell))
        for name, param in shell.named_parameters():
            assert name in tensors
            assert tensors[name] is param


class TestWeightDigest:
    def test_deterministic(self):
        shell = _Shell()
        assert weight_digest(shell) == weight_digest(shell)

    def test_identical_models_share_digest(self):
        assert weight_digest(_Shell()) == weight_digest(_Shell())

    def test_changes_after_optimizer_step(self):
        shell = _Shell()
        before = weight_digest(shell)
        opt = Adam(shell.parameters(), lr=1e-2)
        for p in shell.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        assert weight_digest(shell) != before

    def test_changes_after_load_state_dict(self):
        shell = _Shell()
        before = weight_digest(shell)
        state = {k: v * 1.5 for k, v in shell.state_dict().items()}
        shell.load_state_dict(state)
        assert weight_digest(shell) != before

    def test_changes_after_frozen_data_write(self):
        # The ablation-preset pattern: flip requires_grad off, then pin
        # values with a raw .data write. Must still invalidate.
        shell = _Shell()
        before = weight_digest(shell)
        # repro-check: disable=tensor-data-mutation -- test simulates an ablation preset pinning a frozen tensor
        shell.frozen.data[...] = 0.0
        assert weight_digest(shell) != before

    def test_sensitive_to_single_element(self):
        shell = _Shell()
        before = weight_digest(shell)
        # repro-check: disable=tensor-data-mutation -- test flips one weight element
        shell.head.weight.data[0, 0] += 1e-12
        assert weight_digest(shell) != before


class TestFeatureCache:
    def _triple(self, k=3):
        rng = np.random.default_rng(0)
        return tuple(rng.standard_normal((k, 4)) for _ in range(3))

    def test_miss_then_hit(self):
        cache = FeatureCache()
        design = _FakeDesign("a")
        assert cache.lookup(design, "d1") is None
        cache.store(design, "d1", self._triple())
        hit = cache.lookup(design, "d1")
        assert hit is not None
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_stale_digest_misses_and_is_replaced(self):
        cache = FeatureCache()
        design = _FakeDesign("a")
        cache.store(design, "d1", self._triple())
        assert cache.lookup(design, "d2") is None  # digest changed
        cache.store(design, "d2", self._triple())
        assert len(cache) == 1  # replaced, not accumulated
        assert cache.lookup(design, "d2") is not None

    def test_same_name_different_node_distinct(self):
        cache = FeatureCache()
        cache.store(_FakeDesign("a", "7nm"), "d", self._triple())
        cache.store(_FakeDesign("a", "130nm"), "d", self._triple(5))
        assert len(cache) == 2
        hit = cache.lookup(_FakeDesign("a", "130nm"), "d")
        assert hit[0].shape[0] == 5

    def test_same_name_different_content_distinct(self):
        """Regression: the key used to be (name, node) only, so the
        same benchmark built against differently-scaled libraries
        served the *other* build's features."""
        cache = FeatureCache()
        cache.store(_FakeDesign("a", "7nm", content="real"), "d",
                    self._triple())
        cache.store(_FakeDesign("a", "7nm", content="rescaled"), "d",
                    self._triple(5))
        assert len(cache) == 2
        hit = cache.lookup(_FakeDesign("a", "7nm", content="rescaled"),
                           "d")
        assert hit[0].shape[0] == 5
        hit = cache.lookup(_FakeDesign("a", "7nm", content="real"), "d")
        assert hit[0].shape[0] == 3

    def test_clear(self):
        cache = FeatureCache()
        cache.store(_FakeDesign("a"), "d", self._triple())
        cache.clear()
        assert len(cache) == 0
