"""Benchmarks for the extension studies (beyond the paper's evaluation).

- Reverse transfer (7nm -> 130nm): the framework is node-symmetric.
- Uncertainty calibration: the Bayesian head's sigma should carry
  information about the actual error.
"""

import numpy as np

from repro.experiments import (
    format_calibration,
    format_reverse_transfer,
    run_reverse_transfer,
    run_uncertainty_calibration,
)

from .conftest import (
    bench_seed,
    bench_steps,
    bench_use_cache,
    bench_workers,
    record,
)


def test_reverse_transfer(benchmark, results_dir):
    results = benchmark.pedantic(
        run_reverse_transfer,
        kwargs={"seed": bench_seed(), "steps": bench_steps(),
                "workers": bench_workers(),
                "use_cache": bench_use_cache()},
        rounds=1, iterations=1,
    )
    record(results_dir, "ext_reverse_transfer",
           format_reverse_transfer(results))
    # The model must at least generalize somewhere in the reverse
    # direction and produce finite scores everywhere.
    assert all(np.isfinite(v) for v in results.values())
    assert max(v for k, v in results.items() if k != "average") > 0.0


def test_uncertainty_calibration(benchmark, dataset, results_dir):
    rows = benchmark.pedantic(
        run_uncertainty_calibration,
        kwargs={"dataset": dataset, "seed": bench_seed(),
                "steps": bench_steps()},
        rounds=1, iterations=1,
    )
    record(results_dir, "ext_uncertainty", format_calibration(rows))
    assert len(rows) == len(dataset.test)
    # Uncertainty must be non-degenerate on most designs.
    assert sum(1 for r in rows if r["mean_sigma"] > 0) >= 4
