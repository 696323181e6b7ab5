"""Engine behaviour a resident server depends on: bounded caches,
thread-safe feature cache, no-grad entry points from fresh threads,
bit-identical concurrent predictions, and atomic model swaps."""

import threading
from collections import namedtuple

import numpy as np
import pytest

import repro.infer.engine as engine_mod
from repro.infer import InferenceEngine
from repro.infer.cache import BoundedLRU, FeatureCache
from repro.model import TimingPredictor
from repro.nn import Tensor

from .test_engine import predict_one


# ----------------------------------------------------------------------
# BoundedLRU
# ----------------------------------------------------------------------
class TestBoundedLRU:
    def test_evicts_least_recently_used(self):
        lru = BoundedLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert "a" not in lru
        assert "b" in lru and "c" in lru
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = BoundedLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1     # "a" is now the hottest entry
        lru.put("c", 3)
        assert "a" in lru
        assert "b" not in lru

    def test_put_refreshes_recency(self):
        lru = BoundedLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)             # overwrite also refreshes
        lru.put("c", 3)
        assert lru.get("a") == 10
        assert "b" not in lru

    def test_unbounded_never_evicts(self):
        lru = BoundedLRU(max_entries=None)
        for i in range(100):
            lru.put(i, i)
        assert len(lru) == 100
        assert lru.evictions == 0

    def test_stats_and_clear(self):
        lru = BoundedLRU(max_entries=1)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.stats() == {"entries": 1, "evictions": 1,
                               "max_entries": 1}
        lru.clear()
        assert len(lru) == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            BoundedLRU(max_entries=0)


# ----------------------------------------------------------------------
# Bounded weight-independent engine cache
# ----------------------------------------------------------------------
class TestBoundedEngineCaches:
    def test_struct_cache_respects_bound(self, model, designs,
                                         reference, monkeypatch):
        """Distinct design-set mixes must not grow ``_structs`` past the
        bound — a resident server would otherwise leak one union batch
        per request mix — and eviction must never change results."""
        monkeypatch.setattr(engine_mod, "MAX_STRUCT_ENTRIES", 2)
        engine = InferenceEngine(model, use_cache=False)
        a, b = designs
        for batch in ([a], [b], [a, b], [b], [a]):
            out = engine.predict_many(batch)
            for d in batch:
                np.testing.assert_allclose(out[d.name].mean,
                                           reference[d.name],
                                           atol=1e-10)
        stats = engine.stats()["structs"]
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 1
        assert stats["max_entries"] == 2


# ----------------------------------------------------------------------
# FeatureCache under concurrency
# ----------------------------------------------------------------------
class _FakeDesign(namedtuple("_FakeDesign", "name node")):
    def content_digest(self):
        return f"{self.name}@{self.node}"


class TestFeatureCacheConcurrency:
    def test_concurrent_lookup_store_counters_consistent(self):
        """Hammer one cache from many threads: no lost counter updates,
        no half-written entries."""
        cache = FeatureCache()
        designs = [_FakeDesign(f"d{i}", "7nm") for i in range(4)]
        triples = {d.name: (np.full((2, 2), i), np.full((2, 1), i),
                            np.full((2, 1), -i))
                   for i, d in enumerate(designs)}
        per_thread = 200
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        bad = []

        def worker(tid):
            barrier.wait()
            for k in range(per_thread):
                d = designs[(tid + k) % len(designs)]
                hit = cache.lookup(d, "digest")
                if hit is None:
                    cache.store(d, "digest", triples[d.name])
                elif not np.array_equal(hit[0], triples[d.name][0]):
                    bad.append(d.name)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert bad == []
        assert cache.hits + cache.misses == n_threads * per_thread
        assert cache.hits > 0
        assert len(cache) == len(designs)


# ----------------------------------------------------------------------
# no_grad on every public entry point, from fresh threads
# ----------------------------------------------------------------------
class TestNoGradLeak:
    def test_fresh_thread_predictions_build_no_graph(self, model,
                                                     designs):
        """Grad mode is thread-local and defaults to *enabled*, so a
        server handler thread that calls the engine outside ``no_grad``
        would silently build autograd graphs for every request.  Every
        tensor produced while a fresh thread runs every prediction mode
        must be graph-free."""
        engine = InferenceEngine(model)
        leaks = []
        made = []
        original = Tensor._make

        def spy(data, parents, backward):
            out = original(data, parents, backward)
            made.append(1)
            if (out.requires_grad or out._parents != ()
                    or out._backward is not None):
                leaks.append(repr(out))
            return out

        failures = []

        def run_all_entry_points():
            try:
                predict_one(engine, designs[0])
                predict_one(engine, designs[0], mc_samples=4, seed=3)
                predict_one(engine, designs[1], mc_samples=4,
                            with_uncertainty=True, seed=1)
                engine.predict_many(designs, mc_samples=2, seed=2)
            except BaseException as exc:   # surface in the main thread
                failures.append(exc)

        Tensor._make = staticmethod(spy)
        try:
            t = threading.Thread(target=run_all_entry_points)
            t.start()
            t.join()
        finally:
            Tensor._make = staticmethod(original)
        assert failures == []
        assert made, "spy never saw a tensor op — instrumentation broke"
        assert leaks == []


# ----------------------------------------------------------------------
# Concurrent prediction correctness
# ----------------------------------------------------------------------
class TestConcurrentPredictions:
    def test_threads_times_designs_bit_identical(self, model, designs,
                                                 reference):
        """N threads hammering M designs on one warm engine must return
        exactly the serial answer — bit-identical, every call."""
        engine = InferenceEngine(model)
        engine.predict_many(designs)   # warm: concurrent calls hit the cache
        n_threads, per_thread = 6, 10
        barrier = threading.Barrier(n_threads)
        mismatches = []
        failures = []

        def worker(tid):
            barrier.wait()
            try:
                for k in range(per_thread):
                    d = designs[(tid + k) % len(designs)]
                    out = predict_one(engine, d).mean
                    if not np.array_equal(out, reference[d.name]):
                        mismatches.append((tid, d.name))
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert mismatches == []


# ----------------------------------------------------------------------
# Hot model swap
# ----------------------------------------------------------------------
class TestSwapModel:
    def _trained(self, designs, **kwargs):
        m = TimingPredictor(designs[0].graph.features.shape[1], **kwargs)
        m.finalize_node_priors(designs)
        return m

    def test_swap_switches_predictions(self, model, designs):
        other = self._trained(designs, seed=11)
        engine = InferenceEngine(model)
        before = predict_one(engine, designs[0]).mean
        engine.swap_model(other)
        after = predict_one(engine, designs[0]).mean
        np.testing.assert_allclose(after, other.predict(designs[0]),
                                   atol=1e-10)
        assert not np.allclose(before, after)

    def test_compatible_swap_keeps_weight_independent_caches(
            self, model, designs):
        other = self._trained(designs, seed=11)
        engine = InferenceEngine(model)
        engine.predict_many(designs)
        structs_before = engine.stats()["structs"]["entries"]
        assert structs_before >= 1
        engine.swap_model(other)
        assert engine.stats()["structs"]["entries"] == structs_before

    def test_incompatible_conv_geometry_clears_structure_caches(
            self, model, designs):
        narrow = self._trained(designs, seed=5, cnn_channels=4)
        engine = InferenceEngine(model)
        engine.predict_many(designs)
        assert engine.stats()["structs"]["entries"] >= 1
        engine.swap_model(narrow)
        assert engine.stats()["structs"]["entries"] == 0
        # And the swapped-in model actually serves.
        np.testing.assert_allclose(predict_one(engine, designs[0]).mean,
                                   narrow.predict(designs[0]),
                                   atol=1e-10)
