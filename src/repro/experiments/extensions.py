"""Extension experiments beyond the paper (DESIGN.md section 6).

- :func:`run_uncertainty_calibration` — the Bayesian head yields a
  predictive distribution the paper never examines; measure whether its
  standard deviation correlates with the actual error.

The other extension, reverse transfer (7nm -> 130nm), is the node
ladder's reverse: :func:`repro.experiments.ladder.run_reverse_transfer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..model import TimingPredictor
from ..train import OursTrainer, TrainConfig
from .datasets import ExperimentDataset, build_dataset


def run_uncertainty_calibration(dataset: Optional[ExperimentDataset] = None,
                                seed: int = 0,
                                steps: Optional[int] = None,
                                mc_samples: int = 32
                                ) -> List[Dict[str, float]]:
    """Per-design uncertainty quality of the Bayesian head.

    Reports, per test design, the correlation between predictive sigma
    and absolute error, and the error ratio between the most- and
    least-confident prediction halves (a sharpness measure: > 1 means
    low-sigma predictions really are more accurate).
    """
    dataset = dataset or build_dataset()
    kwargs = {} if steps is None else {"steps": steps}
    model = TimingPredictor(dataset.in_features, seed=seed)
    OursTrainer(model, dataset.train,
                TrainConfig(seed=seed, **kwargs)).fit()

    rows = []
    for design in dataset.test:
        mean, std = model.predict_with_uncertainty(design,
                                                   mc_samples=mc_samples)
        err = np.abs(mean - design.labels)
        corr = float(np.corrcoef(std, err)[0, 1]) if std.std() > 1e-12 \
            else 0.0
        order = np.argsort(std)
        half = len(order) // 2
        confident = err[order[:half]].mean() if half else float("nan")
        uncertain = err[order[half:]].mean() if half else float("nan")
        rows.append({
            "design": design.name,
            "corr_sigma_error": corr,
            "mean_sigma": float(std.mean()),
            "mean_abs_error": float(err.mean()),
            "uncertain_over_confident_error":
                float(uncertain / confident) if half and confident > 0
                else float("nan"),
        })
    return rows


def format_calibration(rows: List[Dict[str, float]]) -> str:
    header = (f"{'design':>10} | {'corr(s,|e|)':>11} | {'mean s':>8} | "
              f"{'mean |e|':>8} | {'unc/conf':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['design']:>10} | {row['corr_sigma_error']:>11.3f} | "
            f"{row['mean_sigma']:>8.4f} | {row['mean_abs_error']:>8.4f} | "
            f"{row['uncertain_over_confident_error']:>8.2f}"
        )
    return "\n".join(lines)
