"""K-node transfer studies over a :class:`~repro.techlib.NodeLadder`.

The paper evaluates exactly one transfer (130nm -> 7nm); this harness
generalizes the experiment to a chain of K nodes:

- **K-source -> 1-target**: train on every source node of the ladder
  jointly, evaluate on the target node's held-out designs.
- **Leave-one-node-out**: retrain with each source node removed and
  measure how much the target R^2 moves — the marginal value of each
  node's data.
- **Reverse transfer** (:func:`run_reverse_transfer`): flip the roles
  (target at the large end of the chain) and check the alignment still
  transfers downhill-to-uphill.  On the default two-anchor ladder this
  is the 7nm -> 130nm extension experiment.

Per-node metrics land in the run manifest (``per_node``) and summary
via the supplied :class:`~repro.obs.RunLogger`, so ``repro.cli
report-run`` and the CI schema validator see them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..model import TimingPredictor
from ..obs import NullRunLogger
from ..techlib import ANCHOR_NMS, DEFAULT_LADDER_NMS, NodeLadder
from ..train import OursTrainer, TrainConfig, r2_score
from .datasets import ExperimentDataset, build_dataset

__all__ = ["format_ladder_study", "format_reverse_transfer",
           "run_ladder_study", "run_reverse_transfer"]


def _train_and_score(dataset: ExperimentDataset, nodes: List[str],
                     target: str, seed: int, steps: Optional[int]
                     ) -> Dict[str, float]:
    """Train on the given node subset, return per-test-design R^2."""
    keep = set(nodes)
    train = [d for d in dataset.train if d.node in keep]
    model = TimingPredictor(dataset.in_features, seed=seed)
    config = TrainConfig(seed=seed, nodes=list(nodes),
                         target_node=target,
                         **({} if steps is None else {"steps": steps}))
    OursTrainer(model, train, config).fit()
    results = {d.name: float(r2_score(d.labels, model.predict(d)))
               for d in dataset.test}
    results["average"] = float(np.mean(list(results.values())))
    return results


def run_reverse_transfer(ladder: Optional[NodeLadder] = None,
                         steps: Optional[int] = None, seed: int = 0,
                         resolution: Optional[int] = None,
                         workers: int = 1, use_cache: bool = True,
                         cache_dir=None) -> Dict[str, float]:
    """Train toward the ladder's *largest* node; per-test-design R^2.

    The dataset is :func:`build_dataset` with the target at the large
    end (default ladder: the paper's two nodes, so 7nm -> 130nm), built
    through the flow cache at the dataset seed; ``seed`` seeds only the
    model and the trainer.  Every test design is scored.
    """
    ladder = ladder if ladder is not None else NodeLadder(ANCHOR_NMS)
    big = ladder.node_labels[0]
    dataset = build_dataset(ladder, target_label=big,
                            resolution=resolution, use_cache=use_cache,
                            workers=workers, cache_dir=cache_dir)
    return _train_and_score(dataset, ladder.node_labels, big, seed, steps)


def run_ladder_study(ladder: Optional[NodeLadder] = None,
                     dataset: Optional[ExperimentDataset] = None,
                     steps: Optional[int] = None, seed: int = 0,
                     resolution: Optional[int] = None,
                     workers: int = 1, use_cache: bool = True,
                     cache_dir=None, include_loo: bool = True,
                     include_reverse: bool = False,
                     logger=None) -> Dict[str, object]:
    """Run the K-source -> 1-target study on a ladder.

    Parameters
    ----------
    ladder:
        Node chain to study (default: the 130/45/28/14/7 chain).
        Ignored when ``dataset`` is given.
    dataset:
        Pre-built :class:`ExperimentDataset` (tests inject tiny ones).
    steps / seed / resolution / workers / use_cache / cache_dir:
        Training length override and dataset build knobs.
    include_loo:
        Also retrain with each source node left out.
    include_reverse:
        Also run :func:`run_reverse_transfer` on the ladder (a second
        dataset, since the test designs move nodes).
    logger:
        A :class:`~repro.obs.RunLogger`; per-node metrics are merged
        into its manifest and summary.  Defaults to a no-op logger.
    """
    logger = logger if logger is not None else NullRunLogger()

    if dataset is None:
        ladder = ladder if ladder is not None \
            else NodeLadder(DEFAULT_LADDER_NMS)
        dataset = build_dataset(
            ladder, resolution=resolution, use_cache=use_cache,
            workers=workers, cache_dir=cache_dir)
    ladder = dataset.ladder
    nodes = ladder.node_labels
    target = dataset.target_label

    main = _train_and_score(dataset, nodes, target, seed, steps)

    per_node: Dict[str, Dict[str, object]] = {}
    for record in ladder.describe():
        label = record["label"]
        per_node[label] = {
            **record,
            "role": "target" if label == target else "source",
            "num_train_designs": len(dataset.by_node(label)),
        }

    loo: Dict[str, Dict[str, float]] = {}
    if include_loo:
        for label in nodes:
            if label == target:
                continue
            remaining = [n for n in nodes if n != label]
            if len(remaining) < 2:
                continue  # nothing left to align against
            scores = _train_and_score(dataset, remaining, target, seed,
                                      steps)
            loo[label] = scores
            per_node[label]["loo_average_r2"] = scores["average"]
            per_node[label]["loo_delta_r2"] = \
                main["average"] - scores["average"]

    reverse: Optional[Dict[str, float]] = None
    if include_reverse:
        reverse = run_reverse_transfer(
            ladder, steps=steps, seed=seed, resolution=resolution,
            workers=workers, use_cache=use_cache, cache_dir=cache_dir)

    results: Dict[str, object] = {
        "nodes": list(nodes),
        "target": target,
        "main": main,
        "per_node": per_node,
        "leave_one_out": loo,
    }
    if reverse is not None:
        results["reverse"] = {"target": nodes[0], **reverse}

    logger.annotate_manifest(nodes=list(nodes), target_node=target,
                             per_node=per_node)
    logger.log_summary(
        per_design={name: {"r2": value}
                    for name, value in main.items()
                    if name != "average"},
        per_node=per_node,
        ladder={"nodes": list(nodes), "target": target,
                "average_r2": main["average"],
                "leave_one_out": {k: v["average"]
                                  for k, v in loo.items()}},
    )
    return results


def format_ladder_study(results: Dict[str, object]) -> str:
    nodes = " -> ".join(results["nodes"])
    lines = [f"Ladder study: {nodes} (target {results['target']})",
             f"  K-source R^2 (avg): {results['main']['average']:.3f}"]
    for name, value in results["main"].items():
        if name != "average":
            lines.append(f"    {name:>12}: {value:.3f}")
    if results["leave_one_out"]:
        lines.append("  Leave-one-node-out (avg R^2 without node):")
        for label, scores in results["leave_one_out"].items():
            delta = results["per_node"][label]["loo_delta_r2"]
            lines.append(f"    -{label:>8}: {scores['average']:.3f} "
                         f"(delta {delta:+.3f})")
    if "reverse" in results:
        rev = results["reverse"]
        lines.append(f"  Reverse transfer -> {rev['target']}: "
                     f"{rev['average']:.3f}")
    return "\n".join(lines)


def format_reverse_transfer(results: Dict[str, float]) -> str:
    lines = ["Reverse transfer (7nm -> 130nm), ours R^2:"]
    for name, r2 in results.items():
        lines.append(f"  {name:>10}: {r2:.3f}")
    return "\n".join(lines)
