"""Experiment: Table 3 — ablation on the number of 130nm designs.

Trains the paper's model with nested subsets of the 130nm training
designs (J, JL, JLS, JLSU = jpeg, +linkruncca, +spiMaster, +usbf_device)
and reports per-test-design R^2.  The paper's shape: performance
improves as more 130nm designs participate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..model import TimingPredictor
from ..train import OursTrainer, TrainConfig, r2_score
from .datasets import ExperimentDataset, build_dataset

#: Nested 130nm subsets, in the paper's row order.
SUBSETS: Tuple[Tuple[str, ...], ...] = (
    ("jpeg",),
    ("jpeg", "linkruncca"),
    ("jpeg", "linkruncca", "spiMaster"),
    ("jpeg", "linkruncca", "spiMaster", "usbf_device"),
)


def run_table3(dataset: Optional[ExperimentDataset] = None, seed: int = 0,
               steps: Optional[int] = None
               ) -> List[Dict[str, object]]:
    """One row per 130nm subset: ``{"subset": ..., <design>: r2, ...}``."""
    dataset = dataset or build_dataset()
    kwargs = {} if steps is None else {"steps": steps}
    rows: List[Dict[str, object]] = []
    for subset in SUBSETS:
        train = dataset.subset_train(subset)
        model = TimingPredictor(dataset.in_features, seed=seed)
        OursTrainer(model, train, TrainConfig(seed=seed, **kwargs)).fit()
        row: Dict[str, object] = {"subset": subset}
        scores = []
        for design in dataset.test:
            r2 = r2_score(design.labels, model.predict(design))
            row[design.name] = r2
            scores.append(r2)
        row["average"] = float(np.mean(scores))
        rows.append(row)
    return rows


def format_table3(rows: List[Dict[str, object]]) -> str:
    """Render rows with the paper's J/L/S/U checkmark columns."""
    initials = {"jpeg": "J", "linkruncca": "L", "spiMaster": "S",
                "usbf_device": "U"}
    designs = [k for k in rows[0] if k not in ("subset", "average")]
    header = ("J L S U | "
              + " | ".join(f"{d:>8}" for d in designs) + " | average")
    lines = [header, "-" * len(header)]
    for row in rows:
        marks = " ".join(
            "x" if name in row["subset"] else " "
            for name in initials
        )
        cells = " | ".join(f"{row[d]:>8.3f}" for d in designs)
        lines.append(f"{marks} | {cells} | {row['average']:>7.3f}")
    return "\n".join(lines)
