"""Inference-engine micro-benchmarks (the serving path).

Measures the three claims of the fast inference architecture
(DESIGN.md §9) against ``TimingPredictor.predict``, the per-design
forward of the training path (no-grad, like the engine):

- **feature cache** — a warm (cache-hit) single-design
  ``predict_many`` vs the cold first call (>= 3x);
- **forward** — one uncached engine ``predict_many([design])`` vs
  ``TimingPredictor.predict`` on the same design: the same no-grad
  forward, except that the engine reuses its cached batch structure
  and first-layer im2col columns (>= 1.0x).  The JSON's
  ``autograd_seconds``/``nograd_seconds`` names date from when
  ``predict()`` recorded an autograd graph;
- **fused batching** — one ``predict_many`` over all test designs vs
  a per-design ``TimingPredictor.predict`` loop (>= 1.5x).

Every timed variant is also checked for numerical equivalence with
``TimingPredictor.predict`` (atol 1e-10) — a fast wrong answer is not
a speedup.

Measured numbers land in ``benchmarks/BENCH_inference.json`` (schema:
``repro.obs.schema.validate_bench_inference``; the committed copy is
the recorded baseline).  ``REPRO_BENCH_SMOKE=1`` shrinks repeat counts
for CI, where only the schema and equivalence — not the ratios — are
asserted (shared runners make ratio floors flaky).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.model import TimingPredictor
from repro.util import reset_timings

from .conftest import bench_seed, record

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_inference.json"

ATOL = 1e-10


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def repeats() -> int:
    return 5 if smoke_mode() else 30


def _best(fn, n):
    """Minimum wall-clock over ``n`` calls (robust on noisy runners)."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def model(dataset):
    m = TimingPredictor(dataset.in_features, seed=bench_seed())
    m.finalize_node_priors(dataset.train)
    return m


@pytest.fixture(scope="module")
def measurements(dataset, model):
    reset_timings()
    designs = dataset.test
    target = max(designs, key=lambda d: d.num_endpoints)
    n = repeats()

    def single(engine):
        return engine.predict_many([target])[target.name].mean

    # -- single design: cold (fresh engine, first call) vs warm ------
    # One throwaway prediction first so BLAS/threadpool init is not
    # billed to the cold call.
    InferenceEngine(model).predict_many(
        [min(designs, key=lambda d: d.num_endpoints)])
    engine = InferenceEngine(model)
    start = time.perf_counter()
    cold_pred = single(engine)
    cold = time.perf_counter() - start
    warm = _best(lambda: single(engine), n)
    warm_pred = single(engine)

    # -- forward: TimingPredictor.predict vs uncached engine ---------
    # ``bare`` is cold on every call: its feature cache is cleared
    # before each timed pass.
    bare = InferenceEngine(model)
    auto_s, nograd_s = [], []
    for _ in range(max(3, n // 3)):  # interleave: same noise windows
        start = time.perf_counter()
        auto_pred = model.predict(target)
        auto_s.append(time.perf_counter() - start)
        bare.cache.clear()
        start = time.perf_counter()
        nograd_pred = single(bare)
        nograd_s.append(time.perf_counter() - start)

    # -- batched predict_many vs looped TimingPredictor.predict ------
    loop_s, fused_s = [], []
    for _ in range(max(3, n // 3)):
        start = time.perf_counter()
        loop_preds = {d.name: model.predict(d) for d in designs}
        loop_s.append(time.perf_counter() - start)
        bare.cache.clear()
        start = time.perf_counter()
        fused_preds = bare.predict_many(designs)
        fused_s.append(time.perf_counter() - start)

    total_endpoints = int(sum(d.num_endpoints for d in designs))
    warm_many = _best(lambda: engine.predict_many(designs), n)

    diffs = [np.max(np.abs(cold_pred - auto_pred)),
             np.max(np.abs(warm_pred - auto_pred)),
             np.max(np.abs(nograd_pred - auto_pred))]
    diffs += [np.max(np.abs(fused_preds[name].mean - pred))
              for name, pred in loop_preds.items()]

    return {
        "single_design": {
            "design": target.name,
            "num_endpoints": int(target.num_endpoints),
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm,
            "repeats": n,
            "statistic": "min",
        },
        "forward": {
            "autograd_seconds": min(auto_s),
            "nograd_seconds": min(nograd_s),
            "speedup": min(auto_s) / min(nograd_s),
        },
        "batched": {
            "looped_autograd_seconds": min(loop_s),
            "fused_nograd_seconds": min(fused_s),
            "speedup": min(loop_s) / min(fused_s),
            "num_designs": len(designs),
            "num_endpoints": total_endpoints,
        },
        "throughput": {
            "endpoints_per_second_warm": total_endpoints / warm_many,
            "endpoints_per_second_cold": total_endpoints / min(fused_s),
        },
        "equivalence": {
            "max_abs_diff": float(max(diffs)),
            "atol": ATOL,
        },
        "machine": {"cpu_count": os.cpu_count()},
        "smoke": smoke_mode(),
    }


def test_engine_matches_seed_path(measurements):
    assert measurements["equivalence"]["max_abs_diff"] <= ATOL


def test_payload_matches_schema_and_is_recorded(measurements,
                                                results_dir):
    from repro.obs import validate_bench_inference

    assert validate_bench_inference(measurements) == []
    s = measurements["single_design"]
    f = measurements["forward"]
    b = measurements["batched"]
    t = measurements["throughput"]
    text = "\n".join([
        f"single design ({s['design']}, {s['num_endpoints']} endpoints, "
        f"min over {s['repeats']})",
        f"  cold    {s['cold_seconds'] * 1e3:.2f} ms",
        f"  warm    {s['warm_seconds'] * 1e3:.3f} ms",
        f"  speedup {s['speedup']:.1f}x",
        "forward (uncached engine vs autograd predict)",
        f"  autograd {f['autograd_seconds'] * 1e3:.2f} ms",
        f"  no-grad  {f['nograd_seconds'] * 1e3:.2f} ms",
        f"  speedup  {f['speedup']:.2f}x",
        f"batched ({b['num_designs']} designs, "
        f"{b['num_endpoints']} endpoints)",
        f"  looped  {b['looped_autograd_seconds'] * 1e3:.2f} ms",
        f"  fused   {b['fused_nograd_seconds'] * 1e3:.2f} ms",
        f"  speedup {b['speedup']:.2f}x",
        "throughput",
        f"  warm  {t['endpoints_per_second_warm']:,.0f} endpoints/s",
        f"  cold  {t['endpoints_per_second_cold']:,.0f} endpoints/s",
    ])
    record(results_dir, "bench_inference", text)
    BENCH_JSON.write_text(json.dumps(measurements, indent=2) + "\n")


def test_warm_cache_beats_cold(measurements):
    if measurements["smoke"]:
        pytest.skip("ratio floors are asserted on full runs only")
    assert measurements["single_design"]["speedup"] >= 3.0


def test_fused_nograd_beats_looped_autograd(measurements):
    if measurements["smoke"]:
        pytest.skip("ratio floors are asserted on full runs only")
    assert measurements["batched"]["speedup"] >= 1.5


def test_nograd_forward_not_slower(measurements):
    if measurements["smoke"]:
        pytest.skip("ratio floors are asserted on full runs only")
    # Same compute minus graph bookkeeping: must not regress.
    assert measurements["forward"]["speedup"] >= 1.0
