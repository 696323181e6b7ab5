"""Experiment: Figure 8 — module ablation.

Trains three variants of the paper's model — disentangle/align only
(DA only), Bayesian readout only, and the full model — and compares
per-design R^2 on the 7nm test set.  The paper's shape: removing either
module costs accuracy, and which single module wins varies by design.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..train import TrainConfig, r2_score, train_ours
from .datasets import ExperimentDataset, build_dataset

VARIANTS = ("DA only", "Bayesian only", "Full")


def run_fig8(dataset: Optional[ExperimentDataset] = None, seed: int = 0,
             steps: Optional[int] = None) -> List[Dict[str, object]]:
    """One row per variant: per-test-design R^2 plus the average."""
    dataset = dataset or build_dataset()
    kwargs = {} if steps is None else {"steps": steps}
    flag_sets = {
        "DA only": dict(use_disentangle_align=True, use_bayesian=False),
        "Bayesian only": dict(use_disentangle_align=False,
                              use_bayesian=True),
        "Full": dict(use_disentangle_align=True, use_bayesian=True),
    }
    rows: List[Dict[str, object]] = []
    for variant in VARIANTS:
        model = train_ours(dataset.train, dataset.in_features,
                           TrainConfig(seed=seed, **kwargs),
                           model_seed=seed, **flag_sets[variant])
        row: Dict[str, object] = {"variant": variant}
        scores = []
        for design in dataset.test:
            r2 = r2_score(design.labels, model.predict(design))
            row[design.name] = r2
            scores.append(r2)
        row["average"] = float(np.mean(scores))
        rows.append(row)
    return rows


def format_fig8(rows: List[Dict[str, object]]) -> str:
    designs = [k for k in rows[0] if k not in ("variant", "average")]
    header = f"{'variant':>14} | " + " | ".join(
        f"{d:>8}" for d in designs
    ) + " | average"
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = " | ".join(f"{row[d]:>8.3f}" for d in designs)
        lines.append(f"{row['variant']:>14} | {cells} | "
                     f"{row['average']:>7.3f}")
    return "\n".join(lines)
