"""Experiment: Table 2 — main results.

Trains the four DAC23 baseline strategies and the paper's model on the
Table-1 training set and evaluates R^2 + inference runtime on the five
7nm test designs, reproducing the shape of the paper's Table 2:
SimpleMerge collapses (negative R^2), ParamShare and PT-FT transfer
partially, and ours transfers best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..model import TimingPredictor
from ..train import (
    BASELINE_STRATEGIES,
    OursTrainer,
    TrainConfig,
    measure_inference_runtime,
    predict_head_for_node,
    r2_score,
)
from .datasets import ExperimentDataset, build_dataset

STRATEGY_ORDER = (
    "DAC23-AdvOnly",
    "DAC23-SimpleMerge",
    "DAC23-ParamShare",
    "DAC23-PT-FT",
    "Ours",
)


@dataclass
class Table2Row:
    """One (strategy, design) cell pair of Table 2."""

    strategy: str
    design: str
    r2: float
    runtime: float


def train_all_strategies(dataset: ExperimentDataset, seed: int = 0,
                         steps: Optional[int] = None
                         ) -> Dict[str, Callable]:
    """Train every Table-2 model; returns ``{strategy: predict_fn}``.

    Every model uses the :class:`TrainConfig` defaults; ``steps``, when
    given, overrides the step count.
    """
    kwargs = {} if steps is None else {"steps": steps}
    predictors: Dict[str, Callable] = {}
    for name, train_fn in BASELINE_STRATEGIES.items():
        cfg = TrainConfig(seed=seed, **kwargs)
        model = train_fn(dataset.train, dataset.in_features, cfg,
                         model_seed=seed)
        predictors[name] = (
            lambda d, m=model: predict_head_for_node(m, d)
        )
    ours = TimingPredictor(dataset.in_features, seed=seed)
    OursTrainer(ours, dataset.train,
                TrainConfig(seed=seed, **kwargs)).fit()
    predictors["Ours"] = lambda d, m=ours: m.predict(d)
    return predictors


def run_table2(dataset: Optional[ExperimentDataset] = None, seed: int = 0,
               steps: Optional[int] = None) -> List[Table2Row]:
    """Full Table 2: R^2 and runtime per strategy per test design."""
    dataset = dataset or build_dataset()
    predictors = train_all_strategies(dataset, seed=seed, steps=steps)
    rows: List[Table2Row] = []
    for strategy in STRATEGY_ORDER:
        predict = predictors[strategy]
        for design in dataset.test:
            runtime = measure_inference_runtime(predict, design)
            rows.append(Table2Row(
                strategy=strategy,
                design=design.name,
                r2=r2_score(design.labels, predict(design)),
                runtime=runtime,
            ))
    return rows


def summarize(rows: List[Table2Row]) -> Dict[str, Dict[str, float]]:
    """Per-strategy average R^2 and runtime."""
    out: Dict[str, Dict[str, float]] = {}
    for strategy in {r.strategy for r in rows}:
        mine = [r for r in rows if r.strategy == strategy]
        out[strategy] = {
            "r2": float(np.mean([r.r2 for r in mine])),
            "runtime": float(np.mean([r.runtime for r in mine])),
        }
    return out


def format_table2(rows: List[Table2Row]) -> str:
    """Render in the paper's layout: designs as rows, strategies as cols."""
    designs = sorted({r.design for r in rows})
    cell = {(r.strategy, r.design): r for r in rows}
    header = f"{'design':>10} | " + " | ".join(
        f"{s.replace('DAC23-', ''):>13}" for s in STRATEGY_ORDER
    )
    lines = [header, "-" * len(header)]
    for design in designs:
        parts = []
        for strategy in STRATEGY_ORDER:
            row = cell[(strategy, design)]
            parts.append(f"{row.r2:>6.3f}/{row.runtime * 1e3:>5.1f}ms")
        lines.append(f"{design:>10} | " + " | ".join(parts))
    summary = summarize(rows)
    lines.append("-" * len(header))
    parts = [f"{summary[s]['r2']:>6.3f}/{summary[s]['runtime'] * 1e3:>5.1f}ms"
             for s in STRATEGY_ORDER]
    lines.append(f"{'average':>10} | " + " | ".join(parts))
    return "\n".join(lines)
