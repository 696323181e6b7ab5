"""Extension experiments beyond the paper (DESIGN.md section 6).

- :func:`run_reverse_transfer` — swap the node roles (abundant 7nm,
  scarce 130nm) and check the framework still transfers; the paper only
  evaluates 130nm -> 7nm.
- :func:`run_uncertainty_calibration` — the Bayesian head yields a
  predictive distribution the paper never examines; measure whether its
  standard deviation correlates with the actual error.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..features import GateVocabulary, normalize_features
from ..flow import PnRFlow
from ..model import TimingPredictor
from ..train import OursTrainer, TrainConfig, r2_score
from .datasets import ExperimentDataset, build_dataset, make_libraries

#: The reverse split: many 7nm designs, one 130nm design, 130nm tests.
REVERSE_TRAIN = {
    "smallboom": "130nm",
    "jpeg": "7nm",
    "linkruncca": "7nm",
    "spiMaster": "7nm",
    "usbf_device": "7nm",
}
REVERSE_TEST = ("arm9", "chacha", "sha3")


def run_reverse_transfer(seed: int = 0, steps: Optional[int] = None,
                         resolution: int = 32) -> Dict[str, float]:
    """Train 7nm -> 130nm and report per-design R^2 on 130nm tests."""
    kwargs = {} if steps is None else {"steps": steps}
    libraries = make_libraries()
    vocab = GateVocabulary(list(libraries.values()))
    flow = PnRFlow(libraries, vocab=vocab, resolution=resolution,
                   seed=seed)
    train = [flow.run(name, node) for name, node in REVERSE_TRAIN.items()]
    test = [flow.run(name, "130nm") for name in REVERSE_TEST]
    params = normalize_features([d.graph for d in train])
    from ..features import apply_normalization

    for d in test:
        apply_normalization(d.graph, params)

    model = TimingPredictor(train[0].graph.features.shape[1], seed=seed)
    OursTrainer(model, train, TrainConfig(seed=seed, **kwargs)).fit()
    results = {d.name: r2_score(d.labels, model.predict(d)) for d in test}
    results["average"] = float(np.mean(list(results.values())))
    return results


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


def format_reverse_transfer(results: Dict[str, float]) -> str:
    lines = ["Reverse transfer (7nm -> 130nm), ours R^2:"]
    for name, r2 in results.items():
        lines.append(f"  {name:>10}: {r2:.3f}")
    return "\n".join(lines)


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
