"""Fused cross-design batching: one graph sweep / one CNN pass per step.

The per-design training loop runs a full-graph GNN sweep and a separate
CNN forward for every design, every step — ~#designs more Python-level
autograd nodes than the math requires.  This module merges all training
designs into one **disjoint union** :class:`~repro.features.PinGraph`
(node rows offset per design, level ``k`` of the union = the level-``k``
rows of every constituent graph, so the sweep depth is the *max* over
designs instead of the sum) and stacks the sampled endpoints' masked
layout images, so one levelised sweep and one CNN forward serve every
design.  Per-design feature blocks are recovered by contiguous index
ranges for the ELBO / contrastive / CMD terms.

Message passing never crosses component boundaries (the union is
disjoint), each node keeps its own topological level, and row-wise ops
(Linear, CNN, disentangler) are independent across rows — so the fused
step is numerically equivalent to the per-design loop (validated to
1e-8 by ``tests/train/test_fused_equivalence.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..features import PinGraph
from ..flow import DesignData
from ..nn import Tensor, concatenate

__all__ = ["FusedDesignBatch", "merge_pin_graphs", "slice_ranges"]


def merge_pin_graphs(graphs: Sequence[PinGraph]) -> PinGraph:
    """Disjoint union of several pin graphs as one :class:`PinGraph`.

    Node rows of graph ``i`` are shifted by the total node count of the
    preceding graphs; edges shift with them.  Level ``k`` of the merged
    graph is the concatenation of every constituent's level ``k`` (rows
    kept sorted), so the merged level count is the max over graphs and
    each node retains the level it had in its own graph — the property
    that makes the merged sweep order-equivalent to per-graph sweeps.
    """
    if not graphs:
        raise ValueError("need at least one graph to merge")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    features = np.concatenate([g.features for g in graphs], axis=0)

    def _merged_edges(kind: str) -> np.ndarray:
        parts = [getattr(g, kind) + off
                 for g, off in zip(graphs, offsets)
                 if getattr(g, kind).shape[1]]
        if not parts:
            return np.zeros((2, 0), dtype=np.int64)
        return np.concatenate(parts, axis=1)

    depth = max(len(g.levels) for g in graphs)
    levels: List[np.ndarray] = []
    for k in range(depth):
        parts = [g.levels[k] + off for g, off in zip(graphs, offsets)
                 if k < len(g.levels)]
        levels.append(np.sort(np.concatenate(parts)))

    return PinGraph(
        features=features,
        net_edges=_merged_edges("net_edges"),
        cell_edges=_merged_edges("cell_edges"),
        levels=levels,
        row_of_pin={},  # identity is per-design; not meaningful merged
        endpoint_rows=np.concatenate(
            [g.endpoint_rows + off for g, off in zip(graphs, offsets)]
        ),
        endpoint_names=[name for g in graphs for name in g.endpoint_names],
    )


def slice_ranges(counts: Sequence[int]) -> List[Tuple[int, int]]:
    """``[(start, stop)]`` ranges of consecutive blocks of given sizes."""
    bounds = np.cumsum([0] + list(counts))
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


class FusedDesignBatch:
    """The merged training batch shared by every fused step.

    Built once per trainer: the union graph (and therefore its memoised
    level plan) is static across steps; only the endpoint subsets change.

    Parameters
    ----------
    designs:
        Training designs in a fixed order (the trainer uses source
        designs first, then target designs, so node groups are
        contiguous in the merged feature matrix).
    """

    def __init__(self, designs: Sequence[DesignData]) -> None:
        self.designs = list(designs)
        self.graph = merge_pin_graphs([d.graph for d in self.designs])
        self._endpoint_offsets = np.cumsum(
            [0] + [d.num_endpoints for d in self.designs]
        )

    # ------------------------------------------------------------------
    def merged_endpoint_rows(self,
                             subsets: Sequence[np.ndarray]) -> np.ndarray:
        """Merged-graph node rows for per-design endpoint subsets."""
        return np.concatenate([
            self.graph.endpoint_rows[off + np.asarray(subset)]
            for off, subset in zip(self._endpoint_offsets, subsets)
        ])

    def stacked_path_images(self, subsets: Sequence[np.ndarray],
                            out: Optional[np.ndarray] = None
                            ) -> np.ndarray:
        """``(K_total, C, R, R)`` masked images for the sampled paths.

        Each design's rows are gathered straight into its slice of
        ``out`` (allocated when None), so a caller that keeps ``out``
        across steps of one batch shape allocates nothing per step.
        """
        if out is None:
            first = self.designs[0].path_image_stack()
            out = np.empty((sum(len(s) for s in subsets),) + first.shape[1:],
                           dtype=first.dtype)
        ranges = slice_ranges([len(s) for s in subsets])
        for design, subset, (lo, hi) in zip(self.designs, subsets, ranges):
            # "clip" writes into ``out`` directly ("raise" would stage
            # the gather in a temporary); subsets index the design's own
            # endpoints, so no index is clipped.
            np.take(design.path_image_stack(), subset, axis=0,
                    out=out[lo:hi], mode="clip")
        return out

    def path_features(self, model, subsets: Sequence[np.ndarray]
                      ) -> Tuple[Tensor, Tensor, Tensor]:
        """Fused ``(u, u_n, u_d)`` for all designs' sampled paths.

        One GNN sweep over the union graph, one CNN forward over the
        stacked images, one disentangler pass; rows follow the design
        order of the batch, so callers recover per-design blocks via
        :func:`slice_ranges` over the subset sizes.
        """
        return self.path_features_from(
            model,
            self.merged_endpoint_rows(subsets),
            self.stacked_path_images(subsets),
        )

    def path_features_from(self, model, rows: np.ndarray, images
                           ) -> Tuple[Tensor, Tensor, Tensor]:
        """:meth:`path_features` from pre-gathered rows/images.

        The trainer prepares ``rows``/``images`` as named step inputs
        (so a compiled trace can rebind them each replay) and hands
        them through here; ``images`` may be a raw array or an already
        wrapped :class:`~repro.nn.Tensor`.
        """
        u_graph = model.extractor.gnn(self.graph, rows)
        u_layout = model.extractor.cnn(
            images if isinstance(images, Tensor) else Tensor(images)
        )
        u = concatenate([u_graph, u_layout], axis=1)
        u_n, u_d = model.disentangler(u)
        return u, u_n, u_d
