"""Experiment: Figure 6 — kernel density estimation of arrival times.

The paper's Figure 6 shows the arrival-time distributions of the 130nm
training set, the 7nm training set, and the 7nm test set, highlighting
the order-of-magnitude scale gap that breaks naive data merging.  We
compute Gaussian KDEs (scipy) over each population and report both the
curves and summary statistics.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .datasets import ExperimentDataset, build_dataset


def run_fig6(dataset: Optional[ExperimentDataset] = None,
             grid_points: int = 200) -> Dict[str, Dict[str, np.ndarray]]:
    """KDE curves + summary stats for the three arrival-time populations.

    Returns ``{population: {"grid": x, "density": f(x), "mean": ...,
    "median": ..., "max": ...}}`` with populations ``"130nm train"``,
    ``"7nm train"``, ``"7nm test"``.
    """
    # Imported here, not at module level: importing repro.experiments
    # must not cost every process the scipy import (DESIGN.md §26).
    from scipy import stats as sstats

    dataset = dataset or build_dataset()
    populations = {
        "130nm train": np.concatenate(
            [d.labels for d in dataset.train_source]
        ),
        "7nm train": np.concatenate(
            [d.labels for d in dataset.train_target]
        ),
        "7nm test": np.concatenate([d.labels for d in dataset.test]),
    }
    out: Dict[str, Dict[str, np.ndarray]] = {}
    for name, values in populations.items():
        kde = sstats.gaussian_kde(values)
        grid = np.linspace(0.0, float(values.max()) * 1.1, grid_points)
        out[name] = {
            "grid": grid,
            "density": kde(grid),
            "mean": float(values.mean()),
            "median": float(np.median(values)),
            "max": float(values.max()),
            "count": int(values.size),
        }
    return out


def scale_gap(fig6_result: Dict[str, Dict[str, np.ndarray]]) -> float:
    """Ratio of 130nm to 7nm mean arrival time (the Figure 6 headline)."""
    return (fig6_result["130nm train"]["mean"]
            / fig6_result["7nm train"]["mean"])


def format_fig6(fig6_result: Dict[str, Dict[str, np.ndarray]]) -> str:
    """ASCII rendering: one density sparkline per population."""
    blocks = " .:-=+*#%@"
    lines = []
    for name, data in fig6_result.items():
        dens = data["density"]
        peak = dens.max() or 1.0
        spark = "".join(
            blocks[min(int(v / peak * (len(blocks) - 1)), len(blocks) - 1)]
            for v in dens[::4]
        )
        lines.append(
            f"{name:>12} | {spark} | mean={data['mean']:.3f}ns "
            f"median={data['median']:.3f}ns n={data['count']}"
        )
    lines.append(f"scale gap (130nm/7nm means): {scale_gap(fig6_result):.1f}x")
    return "\n".join(lines)
