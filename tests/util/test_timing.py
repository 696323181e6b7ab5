"""Tests for the timing instrumentation registry."""

import time

import pytest

from repro.util import (
    format_timing_table,
    get_timings,
    merge_timings,
    reset_timings,
    timed,
    timing_report,
)


@pytest.fixture(autouse=True)
def clean_registry():
    reset_timings()
    yield
    reset_timings()


class TestContextManager:
    def test_accumulates_calls_and_seconds(self):
        for _ in range(3):
            with timed("phase.a"):
                time.sleep(0.002)
        entry = get_timings()["phase.a"]
        assert entry["calls"] == 3
        assert entry["seconds"] >= 0.005

    def test_separate_names_are_independent(self):
        with timed("x"):
            pass
        with timed("y"):
            pass
        timings = get_timings()
        assert timings["x"]["calls"] == 1
        assert timings["y"]["calls"] == 1

    def test_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with timed("boom"):
                raise RuntimeError("fail")
        assert get_timings()["boom"]["calls"] == 1

    def test_nesting(self):
        with timed("outer"):
            with timed("inner"):
                pass
        timings = get_timings()
        assert timings["outer"]["calls"] == 1
        assert timings["inner"]["calls"] == 1

    def test_shared_instance_reentrancy(self):
        """Regression: one instance entered twice before exiting once.

        The old scalar ``_start`` was overwritten by the inner enter,
        so the outer exit measured only the inner span.
        """
        shared = timed("reentrant")
        with shared:
            time.sleep(0.002)
            with shared:
                time.sleep(0.002)
        entry = get_timings()["reentrant"]
        assert entry["calls"] == 2
        # outer >= 4ms + inner >= 2ms; scalar-start corruption would
        # have recorded two ~2ms spans (~4ms total).
        assert entry["seconds"] >= 0.006


class TestDecorator:
    def test_decorated_function_counts_calls(self):
        @timed("decorated")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert f(2) == 3
        assert get_timings()["decorated"]["calls"] == 2

    def test_decorator_preserves_metadata(self):
        @timed("meta")
        def g():
            """docstring"""

        assert g.__name__ == "g"
        assert g.__doc__ == "docstring"

    def test_recursive_decorated_function(self):
        """A decorated recursive function shares one timed instance."""

        @timed("recursive")
        def fact(n):
            time.sleep(0.001)
            return 1 if n <= 1 else n * fact(n - 1)

        assert fact(4) == 24
        entry = get_timings()["recursive"]
        assert entry["calls"] == 4
        # The outermost call's span covers all four sleeps; with the
        # per-call closure start each span is measured independently
        # and the totals accumulate correctly.
        assert entry["seconds"] >= 0.004


class TestMerge:
    def test_merge_into_empty_registry(self):
        merge_timings({"flow.run": {"calls": 3, "seconds": 1.5}})
        assert get_timings()["flow.run"] == {"calls": 3, "seconds": 1.5}

    def test_merge_accumulates_into_existing(self):
        with timed("shared.phase"):
            pass
        merge_timings({"shared.phase": {"calls": 2, "seconds": 0.5}})
        entry = get_timings()["shared.phase"]
        assert entry["calls"] == 3
        assert entry["seconds"] >= 0.5

    def test_merge_multiple_workers(self):
        for _ in range(2):  # two worker snapshots, same phases
            merge_timings({"flow.route": {"calls": 1, "seconds": 0.25},
                           "flow.place": {"calls": 1, "seconds": 0.125}})
        timings = get_timings()
        assert timings["flow.route"] == {"calls": 2, "seconds": 0.5}
        assert timings["flow.place"] == {"calls": 2, "seconds": 0.25}

    def test_format_timing_table_on_snapshot(self):
        table = format_timing_table(
            {"a.phase": {"calls": 2, "seconds": 1.0}})
        assert "a.phase" in table
        assert "calls" in table
        assert format_timing_table({}) == "(no timings recorded)"


class TestReport:
    def test_empty_report(self):
        assert "no timings" in timing_report()

    def test_report_lists_phases(self):
        with timed("alpha"):
            pass
        report = timing_report()
        assert "alpha" in report
        assert "calls" in report

    def test_reset_clears(self):
        with timed("gone"):
            pass
        reset_timings()
        assert get_timings() == {}

    def test_snapshot_is_detached(self):
        merge_timings({"p": {"calls": 1, "seconds": 1.0}})
        snap = get_timings()
        snap["p"]["calls"] = 99
        assert get_timings()["p"]["calls"] == 1
        reset_timings()
        assert snap["p"] == {"calls": 99, "seconds": 1.0}
