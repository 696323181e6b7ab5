"""Dataset construction for the paper's experiments (Table 1).

Builds the paper's train/test split — four 130nm designs plus
smallboom at 7nm for training, five 7nm designs for testing — through
the full synthetic PnR flow, with joint feature normalisation fitted on
the training graphs only.  The split is mapped onto a
:class:`~repro.techlib.NodeLadder`; the default is the paper's two
anchor nodes (``NodeLadder(ANCHOR_NMS)``), and a K-node ladder or a
large target node (reverse transfer) goes through the same builder.

Because flow runs are deterministic but not free, each built design is
cached on disk (``~/.cache/repro-dac24`` by default, see
:mod:`repro.flow.cache`) keyed by name/node/scale/resolution/seed plus
the library set's digest and a code-version salt; cold builds can fan
out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..features import apply_normalization, normalize_features
from ..flow import DesignData, build_designs
from ..netlist import TEST_SPLIT, TRAIN_SPLIT
from ..techlib import ANCHOR_NMS, NodeLadder

#: Default experiment scale knobs (see DESIGN.md section 5).
DATASET_SCALE = {
    "scale": 1.0,
    "resolution": 32,
    "seed": 0,
}


@dataclass
class ExperimentDataset:
    """Train designs (every ladder node) + test designs at the target."""

    train: List[DesignData]
    test: List[DesignData]
    in_features: int
    norm_params: Dict[str, np.ndarray]
    ladder: NodeLadder
    target_label: str

    @property
    def train_source(self) -> List[DesignData]:
        return [d for d in self.train if d.node != self.target_label]

    @property
    def train_target(self) -> List[DesignData]:
        return [d for d in self.train if d.node == self.target_label]

    def by_node(self, label: str) -> List[DesignData]:
        return [d for d in self.train if d.node == label]

    def by_name(self, name: str) -> DesignData:
        for d in self.train + self.test:
            if d.name == name:
                return d
        raise KeyError(name)

    def subset_train(self, source_names: Sequence[str]
                     ) -> List[DesignData]:
        """Target designs plus the named source designs (Table 3 rows)."""
        keep = set(source_names)
        return self.train_target + [d for d in self.train_source
                                    if d.name in keep]


def ladder_split(ladder: NodeLadder,
                 target_label: Optional[str] = None
                 ) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """Map the paper's split onto a ladder's nodes.

    Target-role designs (TRAIN_SPLIT's 7nm entries and every test
    design) go to ``target_label`` — by default the ladder's smallest
    node; pass a large node for reverse transfer.  Source-role designs
    round-robin across the remaining nodes in chain order, so every
    source node contributes data.  On the two-anchor ladder this is
    the paper's Table-1 split.
    """
    target = ladder.target_label if target_label is None else target_label
    if target not in ladder.node_labels:
        raise ValueError(
            f"target {target!r} is not one of the ladder's nodes "
            f"{ladder.node_labels}")
    sources = [label for label in ladder.node_labels if label != target]
    train: List[Tuple[str, str]] = []
    i = 0
    for name, role in TRAIN_SPLIT.items():
        if role == "7nm":
            train.append((name, target))
        else:
            train.append((name, sources[i % len(sources)]))
            i += 1
    test = [(name, target) for name in TEST_SPLIT]
    return train, test


def build_dataset(ladder: Optional[NodeLadder] = None,
                  target_label: Optional[str] = None,
                  scale: float = None, resolution: int = None,
                  seed: int = None, use_cache: bool = True,
                  workers: int = 1,
                  cache_dir: Union[str, Path, None] = None
                  ) -> ExperimentDataset:
    """Build (or load from cache) the Table-1 split on a ladder.

    ``ladder`` defaults to the paper's two anchor nodes and
    ``target_label`` to the ladder's smallest node (see
    :func:`ladder_split`).  Normalisation is fitted on the training
    graphs and applied to the test graphs; the returned dataset is
    ready for training.  Designs are cached individually (see
    :class:`repro.flow.FlowCache`); cold builds run in ``workers``
    processes when ``workers > 1``.
    """
    ladder = ladder if ladder is not None else NodeLadder(ANCHOR_NMS)
    target_label = ladder.target_label if target_label is None \
        else target_label
    scale = DATASET_SCALE["scale"] if scale is None else scale
    resolution = DATASET_SCALE["resolution"] if resolution is None \
        else resolution
    seed = DATASET_SCALE["seed"] if seed is None else seed

    train_names, test_names = ladder_split(ladder, target_label)
    designs = build_designs(train_names + test_names, scale=scale,
                            resolution=resolution, seed=seed,
                            workers=workers, use_cache=use_cache,
                            cache_dir=cache_dir, ladder=ladder)
    train = designs[: len(train_names)]
    test = designs[len(train_names):]
    params = normalize_features([d.graph for d in train])
    for d in test:
        apply_normalization(d.graph, params)
    return ExperimentDataset(
        train=train,
        test=test,
        in_features=train[0].graph.features.shape[1],
        norm_params=params,
        ladder=ladder,
        target_label=target_label,
    )
