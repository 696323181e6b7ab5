"""FlowCache / build_designs correctness.

A cache hit must reproduce the flow output exactly; keys must change
with every parameter; ``use_cache=False`` must bypass the store; and a
corrupt entry must be discarded and rebuilt, never served.
"""

import numpy as np
import pytest

from repro.flow import FlowBuildError, FlowCache, build_designs, run_flow
from repro.flow.cache import library_set_digest
from repro.techlib import (ANCHOR_NMS, NodeLadder, make_asap7_library,
                           make_sky130_library, scale_library)
from repro.util import get_timings, reset_timings

NAMES = [("usbf_device", "7nm")]

#: The library-set digest build_designs keys on for the default
#: two-node libraries.
DIGEST = library_set_digest(
    {"130nm": make_sky130_library(), "7nm": make_asap7_library()})


@pytest.fixture(scope="module")
def fresh():
    libraries = {"130nm": make_sky130_library(), "7nm": make_asap7_library()}
    return run_flow("usbf_device", "7nm", libraries, resolution=16)


def _assert_identical(a, b):
    assert a.name == b.name and a.node == b.node
    np.testing.assert_array_equal(a.graph.features, b.graph.features)
    np.testing.assert_array_equal(a.graph.net_edges, b.graph.net_edges)
    np.testing.assert_array_equal(a.graph.cell_edges, b.graph.cell_edges)
    np.testing.assert_array_equal(a.graph.endpoint_rows,
                                  b.graph.endpoint_rows)
    assert a.graph.endpoint_names == b.graph.endpoint_names
    assert len(a.graph.levels) == len(b.graph.levels)
    for la, lb in zip(a.graph.levels, b.graph.levels):
        np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.cone_masks, b.cone_masks)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.pre_route_at, b.pre_route_at)
    assert a.clock_period == b.clock_period


class TestCacheHit:
    def test_hit_returns_exact_arrays(self, tmp_path, fresh):
        (cold,) = build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        (warm,) = build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        _assert_identical(cold, fresh)
        _assert_identical(warm, cold)

    def test_hit_does_not_rerun_flow(self, tmp_path):
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        cache = FlowCache(tmp_path)
        path = cache.path("usbf_device", "7nm", 1.0, 16, 0, DIGEST)
        mtime = path.stat().st_mtime_ns
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        assert path.stat().st_mtime_ns == mtime


class TestCacheKey:
    def test_key_changes_per_parameter(self):
        cache = FlowCache("/tmp/unused")
        base = cache.key("jpeg", "7nm", 1.0, 32, 0)
        assert cache.key("jpeg", "130nm", 1.0, 32, 0) != base
        assert cache.key("jpeg", "7nm", 2.0, 32, 0) != base
        assert cache.key("jpeg", "7nm", 1.0, 16, 0) != base
        assert cache.key("jpeg", "7nm", 1.0, 32, 7) != base
        assert cache.key("spiMaster", "7nm", 1.0, 32, 0) != base

    def test_key_canonicalizes_numerically_equal_params(self):
        """Regression: ``repr`` typing leaked into the key (s1.0 vs s1),
        so int-vs-float call sites missed each other's entries."""
        cache = FlowCache("/tmp/unused")
        base = cache.key("jpeg", "7nm", 1.0, 32, 0)
        assert cache.key("jpeg", "7nm", 1, 32, 0) == base
        assert cache.key("jpeg", "7nm", np.float64(1.0), 32, 0) == base
        assert cache.key("jpeg", "7nm", 1.0, np.int64(32),
                         np.int32(0)) == base
        # Distinct values still produce distinct keys.
        assert cache.key("jpeg", "7nm", 1.5, 32, 0) != base

    def test_int_and_float_scale_share_cache_entries(self, tmp_path):
        cache = FlowCache(tmp_path)
        assert cache.path("jpeg", "7nm", 1, 16, 0) == \
            cache.path("jpeg", "7nm", 1.0, 16, np.int64(0))

    def test_scale_and_seed_miss_the_cache(self, tmp_path):
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        cache = FlowCache(tmp_path)
        assert cache.load("usbf_device", "7nm", 1.0, 16, 0,
                          DIGEST) is not None
        assert cache.load("usbf_device", "7nm", 1.0, 16, 1, DIGEST) is None
        assert cache.load("usbf_device", "7nm", 0.5, 16, 0, DIGEST) is None
        assert cache.load("usbf_device", "7nm", 1.0, 32, 0, DIGEST) is None
        # The node string alone is not enough: without the library-set
        # digest the entry built against the real libraries must miss.
        assert cache.load("usbf_device", "7nm", 1.0, 16, 0) is None


class TestBypassAndCorruption:
    def test_no_cache_writes_nothing(self, tmp_path):
        build_designs(NAMES, resolution=16, use_cache=False,
                      cache_dir=tmp_path)
        assert not list(tmp_path.rglob("*.npz"))

    def test_no_cache_ignores_existing_entries(self, tmp_path, fresh):
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        cache = FlowCache(tmp_path)
        path = cache.path("usbf_device", "7nm", 1.0, 16, 0, DIGEST)
        path.write_bytes(b"poisoned")  # would crash if loaded
        (rebuilt,) = build_designs(NAMES, resolution=16, use_cache=False,
                                   cache_dir=tmp_path)
        _assert_identical(rebuilt, fresh)
        assert path.read_bytes() == b"poisoned"  # bypass never touched it

    def test_corrupt_entry_discarded_and_rebuilt(self, tmp_path, fresh):
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        cache = FlowCache(tmp_path)
        path = cache.path("usbf_device", "7nm", 1.0, 16, 0, DIGEST)
        path.write_bytes(b"\x00" * 64)
        (rebuilt,) = build_designs(NAMES, resolution=16,
                                   cache_dir=tmp_path)
        _assert_identical(rebuilt, fresh)
        assert cache.load("usbf_device", "7nm", 1.0, 16, 0,
                          DIGEST) is not None


class TestParallelBuild:
    def test_workers_match_serial(self, tmp_path, fresh):
        names = [("usbf_device", "7nm"), ("spiMaster", "130nm")]
        serial = build_designs(names, resolution=16, use_cache=False)
        parallel = build_designs(names, resolution=16, workers=2,
                                 use_cache=False)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)
        _assert_identical(serial[0], fresh)
        # Workers rebuild a ladder's libraries from its spec.
        ladder = NodeLadder(node_nms=(130.0, 45.0, 7.0))
        names = [("usbf_device", "45nm"), ("spiMaster", "7nm")]
        serial = build_designs(names, resolution=16, use_cache=False,
                               ladder=ladder)
        parallel = build_designs(names, resolution=16, workers=2,
                                 use_cache=False, ladder=ladder)
        for a, b in zip(serial, parallel):
            _assert_identical(a, b)

    def test_worker_timings_merge_into_parent(self):
        reset_timings()
        build_designs([("usbf_device", "7nm"), ("spiMaster", "130nm")],
                      resolution=16, workers=2, use_cache=False)
        timings = get_timings()
        # Flow phases ran only inside worker processes; seeing them in
        # the parent registry proves the snapshots were merged back.
        assert timings["flow.run"]["calls"] == 2
        assert timings["flow.run"]["seconds"] > 0.0
        for phase in ("flow.synthesize", "flow.place", "flow.route",
                      "flow.signoff"):
            assert timings[phase]["calls"] == 2
        reset_timings()


class TestBuildFailures:
    def test_serial_failure_names_designs(self):
        with pytest.raises(FlowBuildError) as excinfo:
            build_designs([("usbf_device", "7nm"), ("no_such_design", "7nm"),
                           ("also_missing", "130nm")],
                          resolution=16, use_cache=False,
                          retry_backoff=0.0)
        failures = excinfo.value.failures
        assert [(n, node) for n, node, _ in failures] == \
            [("no_such_design", "7nm"), ("also_missing", "130nm")]
        assert all(isinstance(exc, KeyError) for _, _, exc in failures)
        assert "no_such_design@7nm" in str(excinfo.value)
        assert "also_missing@130nm" in str(excinfo.value)

    def test_parallel_failure_names_designs(self):
        with pytest.raises(FlowBuildError) as excinfo:
            build_designs([("usbf_device", "7nm"),
                           ("no_such_design", "7nm")],
                          resolution=16, workers=2, use_cache=False,
                          retry_backoff=0.0)
        assert [(n, node) for n, node, _ in excinfo.value.failures] == \
            [("no_such_design", "7nm")]

    def test_pool_failure_recovered_by_serial_retry(self, monkeypatch,
                                                    fresh):
        """A pool-level failure (e.g. a worker OOM-killed) must fall back
        to a serial rebuild of exactly the failed designs."""
        from repro.flow import cache as cache_mod

        calls = {}

        def broken_pool(tasks, workers):
            calls["tasks"] = dict(tasks)
            return {}, {i: RuntimeError("worker died")
                        for i in tasks}

        monkeypatch.setattr(cache_mod, "_run_parallel", broken_pool)
        (built,) = build_designs(NAMES, resolution=16, workers=2,
                                 use_cache=False)
        assert calls["tasks"] == {
            0: ("usbf_device", "7nm", 1.0, 16, 0,
                NodeLadder(ANCHOR_NMS).spec)}
        _assert_identical(built, fresh)


class TestRetryBackoff:
    """Transient build failures ride out on retry-with-backoff."""

    @pytest.fixture
    def sleeps(self, monkeypatch):
        from repro.flow import cache as cache_mod

        recorded = []
        monkeypatch.setattr(cache_mod, "_sleep", recorded.append)
        return recorded

    @pytest.fixture
    def flaky_run(self, monkeypatch):
        """Make PnRFlow.run fail ``flaky_run.failures_left`` times."""
        from repro.flow.pnr import PnRFlow

        original = PnRFlow.run
        state = type("State", (), {"failures_left": 0, "calls": 0})()

        def wrapped(self, name, node):
            state.calls += 1
            if state.failures_left > 0:
                state.failures_left -= 1
                raise RuntimeError("transient build failure")
            return original(self, name, node)

        monkeypatch.setattr(PnRFlow, "run", wrapped)
        return state

    def test_transient_failure_recovered(self, sleeps, flaky_run, fresh):
        flaky_run.failures_left = 2
        (built,) = build_designs(NAMES, resolution=16, use_cache=False,
                                 retries=2, retry_backoff=0.5)
        _assert_identical(built, fresh)
        assert flaky_run.calls == 3
        assert sleeps == [0.5, 1.0]  # exponential: base, base*2

    def test_exhausted_retries_raise(self, sleeps, flaky_run):
        flaky_run.failures_left = 99
        with pytest.raises(FlowBuildError) as excinfo:
            build_designs(NAMES, resolution=16, use_cache=False,
                          retries=1, retry_backoff=0.25)
        assert flaky_run.calls == 2  # first attempt + one retry
        assert sleeps == [0.25]
        ((name, node, exc),) = excinfo.value.failures
        assert (name, node) == ("usbf_device", "7nm")
        assert "transient" in str(exc)

    def test_retries_zero_fails_fast(self, sleeps, flaky_run):
        flaky_run.failures_left = 1
        with pytest.raises(FlowBuildError):
            build_designs(NAMES, resolution=16, use_cache=False,
                          retries=0)
        assert flaky_run.calls == 1
        assert sleeps == []

    def test_zero_backoff_never_sleeps(self, sleeps, flaky_run, fresh):
        flaky_run.failures_left = 1
        (built,) = build_designs(NAMES, resolution=16, use_cache=False,
                                 retries=2, retry_backoff=0.0)
        _assert_identical(built, fresh)
        assert sleeps == []

    def test_pool_failure_counts_as_first_attempt(self, monkeypatch,
                                                  sleeps, fresh):
        """A design that failed in the pool has used one attempt: the
        serial fallback backs off before touching it again."""
        from repro.flow import cache as cache_mod

        def broken_pool(tasks, workers):
            return {}, {i: RuntimeError("worker died") for i in tasks}

        monkeypatch.setattr(cache_mod, "_run_parallel", broken_pool)
        (built,) = build_designs(NAMES, resolution=16, workers=2,
                                 use_cache=False, retries=2,
                                 retry_backoff=0.5)
        _assert_identical(built, fresh)
        assert sleeps == [0.5]  # one backoff before the serial recovery


class TestLibraryContentKeying:
    """Regression: cache keys used to include only the *node label*, so
    two same-named but differently-scaled libraries collided — a run
    against a rescaled "7nm" silently served designs built against the
    real one."""

    def test_same_label_different_content_digests_apart(self):
        base = {"130nm": make_sky130_library(),
                "7nm": make_asap7_library()}
        asap = base["7nm"]
        rescaled = dict(base)
        rescaled["7nm"] = scale_library(
            asap, name=asap.name, node_nm=asap.node_nm,
            delay_factor=0.5, cap_factor=1.0, area_factor=1.0,
            cell_prefix="fast")
        assert library_set_digest(rescaled) != library_set_digest(base)

    def test_key_separates_same_label_library_sets(self, tmp_path):
        asap = make_asap7_library()
        rescaled = scale_library(
            asap, name=asap.name, node_nm=asap.node_nm,
            delay_factor=0.5, cap_factor=1.0, area_factor=1.0,
            cell_prefix="fast")
        d_base = library_set_digest({"7nm": asap})
        d_fast = library_set_digest({"7nm": rescaled})
        cache = FlowCache(tmp_path)
        assert cache.key("jpeg", "7nm", 1.0, 16, 0, d_base) != \
            cache.key("jpeg", "7nm", 1.0, 16, 0, d_fast)

    def test_build_designs_misses_on_changed_libraries(self, tmp_path):
        """An entry built against the default libraries must not be
        served for the same (name, node) under different libraries."""
        build_designs(NAMES, resolution=16, cache_dir=tmp_path)
        base = {"130nm": make_sky130_library(),
                "7nm": make_asap7_library()}
        asap = base["7nm"]
        rescaled = dict(base)
        rescaled["7nm"] = scale_library(
            asap, name=asap.name, node_nm=asap.node_nm,
            delay_factor=0.5, cap_factor=1.0, area_factor=1.0,
            cell_prefix="fast")
        cache = FlowCache(tmp_path)
        assert cache.load("usbf_device", "7nm", 1.0, 16, 0,
                          library_set_digest(base)) is not None
        assert cache.load("usbf_device", "7nm", 1.0, 16, 0,
                          library_set_digest(rescaled)) is None


class TestAtomicStore:
    """Regression: ``save_design_data`` used to call a raw
    ``np.savez_compressed`` straight at the target, so a crash
    mid-write could leave a torn archive (detected only later, as a
    discard-and-rebuild cache miss).  It now stages next to the target
    and renames into place."""

    def test_crash_mid_write_leaves_previous_entry_intact(
            self, tmp_path, fresh, monkeypatch):
        from repro.flow.dataset import load_design_data, save_design_data
        from repro.nn import serialization

        target = tmp_path / "design.npz"
        save_design_data(fresh, target)
        good = target.read_bytes()

        def torn_write(path, **arrays):
            with open(str(path), "wb") as handle:
                handle.write(b"torn")
            raise OSError("disk full")

        monkeypatch.setattr(serialization.np, "savez_compressed",
                            torn_write)
        with pytest.raises(OSError, match="disk full"):
            save_design_data(fresh, target)
        # The previous entry survives byte-for-byte, the stage file is
        # cleaned up, and the entry still loads.
        assert target.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == ["design.npz"]
        _assert_identical(load_design_data(target), fresh)

    def test_store_leaves_no_stage_files(self, tmp_path, fresh):
        cache = FlowCache(tmp_path / "designs")
        path = cache.store(fresh, scale=1.0, resolution=16, seed=0)
        assert path.is_file()
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
        _assert_identical(cache.load(fresh.name, fresh.node, 1.0, 16, 0),
                          fresh)
