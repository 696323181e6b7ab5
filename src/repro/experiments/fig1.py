"""Experiment: Figure 1 — prediction scatter, AdvOnly vs transfer.

Figure 1 motivates the paper: a model trained only on limited 7nm data
scatters far from the ground-truth diagonal (a), while the transfer
model hugs it (b).  This experiment produces the two scatter datasets
(ground truth vs prediction, pooled over the 7nm test designs) together
with their R^2.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..model import TimingPredictor
from ..train import OursTrainer, TrainConfig, r2_score, train_adv_only
from .datasets import ExperimentDataset, build_dataset


def run_fig1(dataset: Optional[ExperimentDataset] = None, seed: int = 0,
             steps: Optional[int] = None) -> Dict[str, Dict[str, np.ndarray]]:
    """Scatter data for panels (a) AdvOnly and (b) Ours.

    Returns ``{panel: {"truth": y, "pred": y_hat, "r2": ...}}``.
    """
    dataset = dataset or build_dataset()
    kwargs = {} if steps is None else {"steps": steps}

    adv = train_adv_only(dataset.train, dataset.in_features,
                         TrainConfig(seed=seed, **kwargs),
                         model_seed=seed)
    ours = TimingPredictor(dataset.in_features, seed=seed)
    OursTrainer(ours, dataset.train,
                TrainConfig(seed=seed, **kwargs)).fit()

    panels: Dict[str, Dict[str, np.ndarray]] = {}
    for panel, predict in (("(a) 7nm only", adv.predict),
                           ("(b) 7nm + 130nm transfer", ours.predict)):
        truth = np.concatenate([d.labels for d in dataset.test])
        pred = np.concatenate([predict(d) for d in dataset.test])
        panels[panel] = {
            "truth": truth,
            "pred": pred,
            "r2": r2_score(truth, pred),
        }
    return panels


def format_fig1(panels: Dict[str, Dict[str, np.ndarray]],
                bins: int = 18) -> str:
    """ASCII scatter of prediction vs truth for both panels."""
    lines = []
    for name, data in panels.items():
        truth, pred = data["truth"], data["pred"]
        hi = max(truth.max(), np.percentile(pred, 99)) * 1.02
        lo = 0.0
        grid = [[" "] * bins for _ in range(bins)]
        for t, p in zip(truth, pred):
            i = min(bins - 1, max(0, int((p - lo) / (hi - lo) * bins)))
            j = min(bins - 1, max(0, int((t - lo) / (hi - lo) * bins)))
            grid[bins - 1 - i][j] = "o"
        for k in range(bins):  # the y = x diagonal
            row, col = bins - 1 - k, k
            if grid[row][col] == " ":
                grid[row][col] = "."
        lines.append(f"{name}  (pooled R^2 = {data['r2']:.3f})")
        lines.extend("  |" + "".join(r) + "|" for r in grid)
        lines.append("")
    return "\n".join(lines)
