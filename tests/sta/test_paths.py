"""Tests for critical-path tracing."""

import pytest

from repro.netlist import make_design, map_design
from repro.place import place_design
from repro.route import PreRouteEstimator
from repro.sta import PathTracer, report_worst_paths, run_sta
from repro.techlib import make_asap7_library


@pytest.fixture(scope="module")
def setup():
    lib = make_asap7_library()
    nl = map_design(make_design("arm9"), lib)
    place_design(nl, seed=0)
    est = PreRouteEstimator(nl)
    report = run_sta(nl, est)
    return nl, est, report


class TestPathTracing:
    def test_stage_increments_sum_to_arrival(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        for path in tracer.worst_paths(5):
            total = sum(s.incr for s in path.stages)
            assert total == pytest.approx(path.arrival, rel=1e-6)

    def test_arrivals_monotonically_increase(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        path = tracer.worst_paths(1)[0]
        arrivals = [s.arrival for s in path.stages]
        assert arrivals == sorted(arrivals)

    def test_path_starts_at_startpoint(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        start_names = {p.full_name for p in nl.timing_startpoints()}
        for path in tracer.worst_paths(3):
            assert path.stages[0].kind == "start"
            assert path.startpoint in start_names

    def test_worst_paths_sorted_by_slack(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        slacks = [p.slack for p in tracer.worst_paths(6)]
        assert slacks == sorted(slacks)

    def test_worst_path_matches_report_wns(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        worst = tracer.worst_paths(1)[0]
        assert worst.slack == pytest.approx(report.wns)

    def test_depth_counts_cells(self, setup):
        nl, est, report = setup
        tracer = PathTracer(nl, est, report)
        path = tracer.worst_paths(1)[0]
        assert path.depth == sum(1 for s in path.stages
                                 if s.kind == "cell")
        assert path.depth >= 1

    def test_report_rendering(self, setup):
        nl, est, report = setup
        text = report_worst_paths(nl, est, n=2, report=report)
        assert "Startpoint:" in text
        assert "Slack:" in text
        assert text.count("Endpoint:") == 2

