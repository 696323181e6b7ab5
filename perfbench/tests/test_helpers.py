"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import threading
import types

import numpy as np
import pytest

import common
import prep
import run
import serve_load
import tracer as tracer_mod
from tracer import Patches, Tracer, format_table, layer_rows, unattributed


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9), (100000, 99.99)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_samples_beyond_is_exact_at_the_edges():
    assert common.samples_beyond(1000, 99.0) == 10
    assert common.samples_beyond(10000, 99.9) == 10
    assert common.samples_beyond(999, 99.0) < 10


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=257))
    for q in (0, 37.5, 50, 99, 99.9, 100):
        assert common.percentile(values, q) == pytest.approx(
            np.percentile(values, q), rel=1e-12)


def test_latency_summary_reports_counts_and_supported_tail():
    summary = common.latency_summary([i / 1000 for i in range(1, 1001)])
    assert summary["count"] == 1000
    assert summary["p99_beyond"] == 10
    assert summary["tail_q"] == 99.0
    assert summary["p50_ms"] == pytest.approx(500.5)
    assert common.latency_summary([0.001] * 15)["tail_q"] == 0.0


# ----------------------------------------------------------------------
# Wrapper install / restore
# ----------------------------------------------------------------------
class Base:
    def inherited(self, x):
        return x + 1


class Child(Base):
    def own(self, x):
        return 2 * x


class Resource:
    def __init__(self, value):
        self.value = value

    def read(self):
        return self.value


class Context:
    def __enter__(self):
        return "inside"

    def __exit__(self, *exc):
        return False


def make_module():
    module = types.ModuleType("fake_layer")
    module.helper = lambda x: x * 3
    module.Resource = Resource
    module.context = Context
    return module


def snapshot(owner):
    return {name: value for name, value in vars(owner).items()}


def assert_identical(before, owner):
    after = vars(owner)
    assert set(after) == set(before)
    for name, value in before.items():
        assert after[name] is value, name


def test_patches_restore_every_namespace_exactly():
    module = make_module()
    before = {id(o): snapshot(o) for o in (module, Child, Base)}
    tracer = Tracer()
    with Patches(tracer) as patches:
        patches.wrap(module, "helper", "layer.helper")
        patches.wrap(Child, "own", "layer.own")
        patches.wrap(Child, "inherited", "layer.inherited")
        patches.wrap_context(module, "context", "layer.context")
        patches.wrap_constructor(module, "Resource", "layer.resource",
                                 methods=("read",))
        child = Child()
        assert module.helper(2) == 6
        assert child.own(2) == 4 and child.inherited(2) == 3
        with module.context() as value:
            assert value == "inside"
        resource = module.Resource(5)
        assert resource.read() == 5
        assert "read" in vars(resource)
    for owner in (module, Child, Base):
        assert_identical(before[id(owner)], owner)
    assert "read" not in vars(resource)
    assert Resource(1).read() == 1
    for name in ("layer.helper", "layer.own", "layer.inherited",
                 "layer.context"):
        assert tracer.calls(name) == 1, name
    assert tracer.calls("layer.resource") == 2   # construction + read


def test_patches_restore_after_an_exception():
    module = make_module()
    before = snapshot(module)
    with pytest.raises(RuntimeError):
        with Patches(Tracer()) as patches:
            patches.wrap(module, "helper", "layer.helper")
            raise RuntimeError("boom")
    assert_identical(before, module)


def install_serve(patches):
    serve_load.install_serve_layers(patches)
    serve_load.SweepLedger(patches.tracer).install(patches)


@pytest.mark.parametrize("install, modules", [
    ("flow", ["repro.flow.pnr", "repro.flow.cache"]),
    ("train", ["repro.train.trainer", "repro.nn.compile", "repro.nn.optim",
               "repro.train.selection", "repro.model.predictor"]),
    ("serve", ["repro.serve.server", "repro.serve.coalescer",
               "repro.infer.engine", "repro.model.gnn",
               "repro.model.bayesian", "repro.model.predictor"]),
])
def test_layer_wrappers_leave_program_modules_identical(install, modules):
    pytest.importorskip("repro")
    import worker

    installers = {"flow": worker.install_flow_layers,
                  "train": worker.install_train_layers,
                  "serve": install_serve}
    loaded = [importlib.import_module(name) for name in modules]
    owners = list(loaded) + [value for module in loaded
                             for value in vars(module).values()
                             if isinstance(value, type)
                             and value.__module__ == module.__name__]
    before = [snapshot(owner) for owner in owners]
    with Patches(Tracer()) as patches:
        installers[install](patches)
    for owner, saved in zip(owners, before):
        assert_identical(saved, owner)


# ----------------------------------------------------------------------
# Self time and the unattributed row
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_and_unattributed_add_up(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", clock)
    tracer = Tracer()
    root = tracer.begin()              # t=0
    clock.now = 1.0
    a = tracer.begin()                 # A: 1 .. 5
    clock.now = 2.0
    b = tracer.begin()                 # B (inside A): 2 .. 3
    clock.now = 3.0
    tracer.end("B", b)
    clock.now = 5.0
    tracer.end("A", a)
    c = tracer.begin()                 # C: 5 .. 7
    clock.now = 7.0
    tracer.end("C", c)
    clock.now = 10.0
    tracer.end("root", root)
    assert tracer.self_time("A") == 3.0
    assert tracer.self_time("B") == 1.0
    assert tracer.self_time("C") == 2.0
    rows = layer_rows(tracer, {"ab": ["A", "B"], "c": ["C"]})
    assert rows == {"ab": (2, 4.0), "c": (1, 2.0)}
    rest = unattributed(10.0, (s for _, s in rows.values()))
    assert rest == 4.0 == tracer.self_time("root")
    table = format_table("t", 10.0, rows, "x.unattributed_s")
    assert "x.unattributed_s" in table and "40.0%" in table


def test_spans_nest_per_thread():
    tracer = Tracer()
    done = threading.Event()

    def other():
        with tracer.span("other"):
            done.wait(1.0)

    thread = threading.Thread(target=other)
    with tracer.span("outer"):
        thread.start()
        with tracer.span("inner"):
            pass
        done.set()
        thread.join(5.0)
    assert not thread.is_alive()
    # The other thread's span is not a child of "outer".
    assert tracer.self_time("outer") == pytest.approx(
        tracer.total("outer") - tracer.total("inner"))


# ----------------------------------------------------------------------
# Serving generator helpers
# ----------------------------------------------------------------------
def test_checkpoint_swap_is_atomic(tmp_path):
    first = tmp_path / "a.npz"
    second = tmp_path / "b.npz"
    first.write_bytes(b"A" * 300_000)
    second.write_bytes(b"B" * 500_000)
    served = tmp_path / "served.npz"
    serve_load.swap_checkpoint(first, served)
    seen = set()
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            seen.add(served.read_bytes())

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(200):
            serve_load.swap_checkpoint(second if i % 2 == 0 else first,
                                       served)
    finally:
        stop.set()
        thread.join(5.0)
    assert not thread.is_alive()
    assert seen <= {first.read_bytes(), second.read_bytes()}
    assert served.read_bytes() == first.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["a.npz", "b.npz", "served.npz"]


def test_rebuild_time_waits_for_every_design():
    load = serve_load.Load()
    load.reloads = [(10.0, 10.1, 2), (20.0, 20.1, 3)]
    load.replies = [(0, 10.2, 10.3, "x", 2), (1, 10.2, 10.6, "y", 2),
                    (0, 10.3, 10.4, "x", 2), (0, 20.2, 20.5, "x", 3)]
    assert serve_load.rebuild_times(load, designs=2) == \
        [pytest.approx(0.6)]


def test_samples_overlapping_a_reload_are_not_checked():
    load = serve_load.Load()
    load.reloads = [(1.0, 2.0, 2)]
    good = ([1.0], [0.5])
    refs = [{"x": (np.array([1.0]), np.array([0.5]))},
            {"x": (np.array([9.0]), np.array([0.5]))}]
    load.samples = [(1, 0.0, 0.5, "x", 1, *good),
                    (1, 1.5, 2.5, "x", 2, *good),   # overlaps: skipped
                    (0, 2.5, 3.0, "x", 2, [9.0], [0.5])]
    assert serve_load.check_samples(load, refs) == (2, 0)
    load.samples.append((0, 3.0, 3.5, "x", 2, [9.0 + 1e-9], [0.5]))
    assert serve_load.check_samples(load, refs) == (3, 1)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the command
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_metrics_the_command_prints():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.EXTRA_SETUPS) == set(run.WORKLOADS)


# ----------------------------------------------------------------------
# Replay op groups and the preparation directory
# ----------------------------------------------------------------------
def test_every_compiled_kernel_has_an_op_group():
    pytest.importorskip("repro")
    import worker
    from repro.nn.compile import KERNELS

    grouped = [op for ops in worker.OP_GROUPS.values() for op in ops]
    assert len(grouped) == len(set(grouped))
    assert set(grouped) == set(KERNELS)
    timings = {"op.fwd.matmul": {"seconds": 1.0},
               "op.bwd.scatter_add_rows": {"seconds": 2.0},
               "op.fwd.relu": {"seconds": 4.0},
               "op.fwd.not_a_kernel": {"seconds": 8.0},
               "train.replay": {"seconds": 99.0}}
    groups = worker.op_group_seconds(timings)
    assert groups == {"conv": 0.0, "graph": 2.0, "matmul": 1.0,
                      "elementwise": 4.0, "layout": 0.0, "other": 8.0}


def test_clearing_the_preparation_keeps_the_drift_record(tmp_path):
    (tmp_path / "designs").mkdir()
    (tmp_path / "designs" / "x.npz").write_bytes(b"x")
    (tmp_path / "train_ref").mkdir()
    for name in ("lock", "runs.jsonl", "prep.json", "model_a.npz"):
        (tmp_path / name).write_text(name)
    prep.clear_state(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["lock", "runs.jsonl"]
    assert (tmp_path / "runs.jsonl").read_text() == "runs.jsonl"
