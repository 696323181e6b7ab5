"""RequestCoalescer: fusing, grouping, dedupe, shutdown.

The contract (DESIGN.md §13): a fused batch returns exactly what
per-design ``TimingPredictor.predict`` calls with the same options
would have — the coalescer only changes *when* the engine runs, never
*what* it computes — and no submitter is ever left hanging, including
across shutdown races."""

import threading
import time

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.serve import CoalescerClosed, RequestCoalescer


@pytest.fixture()
def engine(model):
    return InferenceEngine(model)


class TestFusing:
    def test_single_request_matches_predict(self, engine, designs,
                                            reference):
        with RequestCoalescer(engine, batch_window_ms=2.0) as co:
            result = co.predict(designs[0], timeout=30.0)
        np.testing.assert_allclose(result.mean,
                                   reference[designs[0].name],
                                   atol=1e-10)

    def test_concurrent_requests_fuse_into_one_batch(self, engine,
                                                     designs):
        engine.predict_many(designs)  # warm so the sweep is fast
        with RequestCoalescer(engine, batch_window_ms=50.0,
                              max_batch=8) as co:
            barrier = threading.Barrier(4)
            handles = [None] * 4

            def submit(i):
                barrier.wait()
                handles[i] = co.submit(designs[i % 2])

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results = [h.wait(timeout=30.0) for h in handles]
            stats = co.stats()
        assert all(r is not None for r in results)
        # All four landed within the window: at least one multi-request
        # batch must have formed (scheduling may split off stragglers).
        assert stats["largest_batch"] >= 2
        assert stats["requests"] == 4

    @pytest.mark.parametrize("max_batch", [1, 2])
    def test_max_batch_caps_fusion(self, engine, designs, max_batch):
        """``max_batch=1`` gives strictly single-request batches."""
        with RequestCoalescer(engine, batch_window_ms=200.0,
                              max_batch=max_batch) as co:
            handles = [co.submit(designs[i % 2]) for i in range(4)]
            for h in handles:
                h.wait(timeout=30.0)
            stats = co.stats()
        assert stats["largest_batch"] <= max_batch
        assert stats["batches"] >= 4 // max_batch
        if max_batch == 1:
            assert stats["coalesced_requests"] == 0


class TestGrouping:
    def test_incompatible_options_split_sweeps(self, engine, designs,
                                               model):
        """Requests with different (mc, uncertainty, seed) in one batch
        must not contaminate each other."""
        with RequestCoalescer(engine, batch_window_ms=100.0,
                              max_batch=8) as co:
            plain = co.submit(designs[0])
            mc = co.submit(designs[0], mc_samples=8, seed=7)
            unc = co.submit(designs[1], mc_samples=16,
                            with_uncertainty=True, seed=3)
            plain_out = plain.wait(timeout=30.0)
            mc_out = mc.wait(timeout=30.0)
            unc_out = unc.wait(timeout=30.0)
        np.testing.assert_allclose(plain_out.mean,
                                   model.predict(designs[0]),
                                   atol=1e-10)
        np.testing.assert_allclose(
            mc_out.mean, model.predict(designs[0], mc_samples=8, seed=7),
            atol=1e-10)
        ref_mean, ref_std = model.predict_with_uncertainty(
            designs[1], mc_samples=16, seed=3)
        np.testing.assert_allclose(unc_out.mean, ref_mean, atol=1e-10)
        np.testing.assert_allclose(unc_out.std, ref_std, atol=1e-10)

    def test_duplicate_designs_share_one_sweep_slot(self, engine,
                                                    designs, reference):
        engine.predict_many(designs)  # warm
        calls = []
        original = engine.predict_many

        def spy(batch, **kwargs):
            calls.append(len(batch))
            return original(batch, **kwargs)

        engine.predict_many = spy
        try:
            with RequestCoalescer(engine, batch_window_ms=200.0,
                                  max_batch=8) as co:
                handles = [co.submit(designs[0]) for _ in range(4)]
                results = [h.wait(timeout=30.0) for h in handles]
                stats = co.stats()
        finally:
            engine.predict_many = original
        for r in results:
            np.testing.assert_allclose(r.mean,
                                       reference[designs[0].name],
                                       atol=1e-10)
        # Any sweep serving >1 request must have deduped to one design.
        assert stats["largest_batch"] >= 2
        assert max(calls) == 1


class TestErrorsAndShutdown:
    def test_engine_error_fans_out_to_submitters(self, engine, designs):
        def boom(batch, **kwargs):
            raise RuntimeError("engine exploded")

        engine.predict_many = boom
        with RequestCoalescer(engine, batch_window_ms=50.0) as co:
            h1 = co.submit(designs[0])
            h2 = co.submit(designs[1])
            with pytest.raises(RuntimeError, match="engine exploded"):
                h1.wait(timeout=30.0)
            with pytest.raises(RuntimeError, match="engine exploded"):
                h2.wait(timeout=30.0)

    def test_submit_after_close_raises(self, engine, designs):
        co = RequestCoalescer(engine, batch_window_ms=1.0)
        co.close()
        with pytest.raises(CoalescerClosed):
            co.submit(designs[0])

    def test_pending_requests_fail_on_close_not_hang(self, engine,
                                                     designs):
        slow = threading.Event()

        def stall(batch, **kwargs):
            slow.set()
            time.sleep(0.2)
            raise RuntimeError("interrupted")

        engine.predict_many = stall
        co = RequestCoalescer(engine, max_batch=1)
        handle = co.submit(designs[0])
        slow.wait(timeout=5.0)
        late = co.submit(designs[1])   # queued behind the stalled sweep
        co.close(timeout=10.0)
        with pytest.raises((RuntimeError, CoalescerClosed)):
            handle.wait(timeout=10.0)
        with pytest.raises(CoalescerClosed):
            late.wait(timeout=10.0)

    def test_invalid_parameters_rejected(self, engine):
        for window in (-1.0, 0.0):
            with pytest.raises(ValueError):
                RequestCoalescer(engine, batch_window_ms=window)
        with pytest.raises(ValueError):
            RequestCoalescer(engine, max_batch=0)

    def test_wait_timeout(self, engine, designs):
        def stall(batch, **kwargs):
            time.sleep(1.0)
            raise RuntimeError("too slow")

        engine.predict_many = stall
        with RequestCoalescer(engine, max_batch=1) as co:
            handle = co.submit(designs[0])
            with pytest.raises(TimeoutError):
                handle.wait(timeout=0.05)
