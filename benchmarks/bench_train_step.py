"""Training-step and dataset-pipeline micro-benchmarks.

Measures the headline optimisations of the performance architecture
(DESIGN.md), at the default dataset scale:

- the graph-compiled step (trace once, replay a flat preallocated numpy
  schedule — DESIGN.md §11) vs. the eager fused step (one union-graph
  GNN sweep + one stacked CNN forward), in float64 (bit-exact) and
  float32;
- warm (cache-hit) vs. cold dataset construction.

Besides the usual rendered table under ``results/``, the measured
numbers are written to ``benchmarks/BENCH_train.json`` (override the
path with ``REPRO_BENCH_TRAIN_JSON``) — the committed copy is the
recorded baseline that the CI regression gate
(``benchmarks/regression_gate.py``) compares fresh runs against.

``REPRO_BENCH_SMOKE=1`` shrinks the timed-step count and relaxes the
speedup assertions to smoke thresholds (CI runs in this mode; the
recorded baselines come from full runs).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import build_dataset
from repro.model import TimingPredictor
from repro.train import OursTrainer, TrainConfig

from .conftest import bench_seed, record

BENCH_JSON = Path(
    os.environ.get("REPRO_BENCH_TRAIN_JSON")
    or Path(__file__).resolve().parent / "BENCH_train.json"
)


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def timed_steps() -> int:
    """Steps timed per variant (after untimed warm-up steps).

    The warm-up steps pay the one-off costs: union-graph construction,
    level-plan memoisation, and — for the compiled variants — the
    trace+compile of the step program (warmup and main phases share
    it).

    Two statistics are recorded per variant because they answer
    different questions.  The per-step MINIMUM is the pure-compute
    floor — robust against neighbour noise on shared runners, and the
    machine-stable quantity the regression gate compares.  The MEAN is
    what time-to-train actually scales with: the eager step's cost is
    bimodal (a ~0.13 s compute floor plus frequent multi-second
    allocator/GC storms from building and tearing down the ~60k-node
    autograd graph every step, CPU-time-visible and present at the
    seed revision too), so a min-of-N would silently discard exactly
    the cost the compile layer removes.

    Smoke mode still times 8 steps: the regression gate compares the
    eager variants' min against the committed floor, and with fewer
    windows a run can miss a storm-free step entirely.
    """
    return 8 if smoke_mode() else 10


def compile_speedup_floor() -> float:
    """Required compiled-f64 mean-step speedup over the eager fused step.

    Smoke mode only sanity-checks the ordering: tight ratios are flaky
    when CI neighbours steal the CPU mid-window.
    """
    return 1.3 if smoke_mode() else 2.0


#: (variant key, TrainConfig overrides) — timed interleaved, one step
#: of each per round, so every variant sees the same noise windows and
#: the ratios stay meaningful when a neighbour steals the CPU.
VARIANTS = (
    ("fused", {"compile": False}),
    ("compiled", {"compile": True, "dtype": "float64"}),
    ("compiled_f32", {"compile": True, "dtype": "float32"}),
)


def _blas_vendor() -> str:
    """Name of the BLAS numpy was built against (from build metadata)."""
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except Exception:
        return "unknown"


def _step_measurements(dataset):
    """Per-variant step-time stats + compiled-vs-eager loss deviation."""
    trainers = {}
    for key, overrides in VARIANTS:
        model = TimingPredictor(dataset.in_features, seed=bench_seed())
        cfg = TrainConfig(seed=bench_seed(), holdout_fraction=0.0,
                          **overrides)
        trainers[key] = OursTrainer(model, dataset.train, cfg)
        trainers[key].step(warmup=True)
        trainers[key].step()
    times = {key: [] for key, _ in VARIANTS}
    losses = {key: [] for key, _ in VARIANTS}
    for _ in range(timed_steps()):
        for key, _ in VARIANTS:
            rec = trainers[key].step()
            times[key].append(rec["step_seconds"])
            losses[key].append(rec["total"])

    stats = {}
    for key, _ in VARIANTS:
        stats[f"{key}_seconds"] = min(times[key])
        stats[f"{key}_mean"] = float(np.mean(times[key]))
        stats[f"{key}_std"] = float(np.std(times[key]))
    # Mean-based: the eager graph's per-step allocation cost (the thing
    # the compiled schedule removes) lands on typical steps, not the
    # luckiest one — see timed_steps().  The min-based ratio is kept
    # alongside for the compute-floor comparison.
    stats["compile_speedup"] = (stats["fused_mean"]
                                / stats["compiled_mean"])
    stats["compile_speedup_min"] = (stats["fused_seconds"]
                                    / stats["compiled_seconds"])
    stats["compile_f32_speedup"] = (stats["fused_mean"]
                                    / stats["compiled_f32_mean"])
    # All variants share seed and step math, so they walk the same loss
    # trajectory; the compiled float64 one must match the eager fused
    # one bit for bit (the replay contract), and the float32 deviation
    # is recorded as the documented tolerance.
    stats["max_abs_loss_dev_compiled"] = float(max(
        abs(a - b) for a, b in zip(losses["compiled"], losses["fused"])))
    stats["max_rel_loss_dev_f32"] = float(max(
        abs(a - b) / max(abs(b), 1e-12)
        for a, b in zip(losses["compiled_f32"], losses["fused"])))
    stats["timed_steps"] = timed_steps()
    stats["statistic"] = "min"
    return stats


@pytest.fixture(scope="module")
def measurements(dataset, tmp_path_factory):
    train_step = _step_measurements(dataset)

    cache_dir = tmp_path_factory.mktemp("bench-cache")
    start = time.perf_counter()
    build_dataset(use_cache=True, cache_dir=cache_dir)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    build_dataset(use_cache=True, cache_dir=cache_dir)
    warm = time.perf_counter() - start

    return {
        "train_step": train_step,
        "dataset_build": {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm,
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "blas": _blas_vendor(),
        },
    }


def _render(measurements) -> str:
    m = measurements["train_step"]
    d = measurements["dataset_build"]
    mach = measurements["machine"]
    lines = [
        "train step (default scale, min over "
        f"{m['timed_steps']} interleaved steps)",
    ]
    for key, _ in VARIANTS:
        lines.append(
            f"  {key:13s} {m[key + '_seconds']:.3f} s/step "
            f"(mean {m[key + '_mean']:.3f} +- {m[key + '_std']:.3f})")
    lines += [
        f"  compiled vs fused      {m['compile_speedup']:.2f}x (mean), "
        f"{m['compile_speedup_min']:.2f}x (min)",
        f"  compiled-f32 vs fused  {m['compile_f32_speedup']:.2f}x (mean)",
        "  compiled loss dev      "
        f"{m['max_abs_loss_dev_compiled']:.1e} abs (f64), "
        f"{m['max_rel_loss_dev_f32']:.1e} rel (f32)",
        "dataset build",
        f"  cold    {d['cold_seconds']:.2f} s",
        f"  warm    {d['warm_seconds']:.3f} s",
        f"  speedup {d['speedup']:.1f}x",
        "machine",
        f"  cpus {mach['cpu_count']}, numpy {mach['numpy']}, "
        f"blas {mach['blas']}",
    ]
    return "\n".join(lines)


def test_fused_step_beats_looped(measurements, results_dir):
    """Record the measurements: the ``results/`` table and ``BENCH_JSON``."""
    record(results_dir, "bench_train", _render(measurements))
    BENCH_JSON.write_text(json.dumps(measurements, indent=2) + "\n")


def test_compiled_step_beats_fused(measurements):
    assert (measurements["train_step"]["compile_speedup"]
            >= compile_speedup_floor())


def test_compiled_step_is_bit_exact(measurements):
    """The compiled float64 loss stream must equal eager's exactly."""
    assert measurements["train_step"]["max_abs_loss_dev_compiled"] <= 1e-12


def test_warm_dataset_build_beats_cold(measurements):
    assert measurements["dataset_build"]["speedup"] >= 5.0


def test_fused_training_preserves_accuracy(dataset):
    """Guard: the fast paths must not change what the model learns.

    A short fused training run reaches a sane positive R^2 on the 7nm
    test designs (the Table-2 shape; full-length runs are the table
    benches' job).
    """
    from repro.train import r2_score

    model = TimingPredictor(dataset.in_features, seed=bench_seed())
    cfg = TrainConfig(steps=60, seed=bench_seed())
    OursTrainer(model, dataset.train, cfg).fit()
    scores = [r2_score(d.labels, model.predict(d)) for d in dataset.test]
    assert np.mean(scores) > 0.0
