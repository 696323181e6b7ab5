"""Timing-engine-inspired GNN over the heterogeneous pin graph.

Following the paper (Section 3.1, after Guo et al. [3]), the GNN
propagates along the timing graph from primary inputs to endpoints in
levelised sweeps — exactly the order a PERT STA traversal visits pins.
Net edges and cell edges have separate message transforms (the graph is
heterogeneous), and a node's embedding is

``h_v = ReLU(W_self x_v + W_net mean(h_net-fanin) + W_cell mean(h_cell-fanin))``

computed level by level, so each embedding summarises the whole fanin
cone below it — making the endpoint rows genuine *timing path* features.

The sweep is one fused autograd node (:func:`levelized_sweep`, the
``levelized_sweep`` op of :mod:`repro.nn.ops`) whose forward runs every
level in tight numpy (in-place level updates, BLAS message matmuls) and
whose backward replays the levels in reverse — instead of the thousands
of small per-level gather/scatter autograd nodes the naive composition
creates, which dominate wall-clock on small levels.  Eager and compiled
execution run that one definition.  Its oracles are the
finite-difference gradcheck (:mod:`repro.check.gradcheck`) and a
test-only per-level reference composition
(``tests/nn/test_fused_gradcheck.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..features import PinGraph
from ..nn import Linear, Module, Tensor, gather_rows
from ..nn.tensor import apply
from ..util import timed


class _LevelPlan:
    """Precomputed per-level edge groupings for one graph (cached).

    Construction is fully vectorised: destination rows are mapped to
    level-local slots with ``np.searchsorted`` over the (unique) level
    rows, and fanin counts come from one ``np.bincount`` — no per-edge
    Python loop.
    """

    def __init__(self, graph: PinGraph) -> None:
        node_level = np.zeros(graph.num_nodes, dtype=np.int64)
        for k, rows in enumerate(graph.levels):
            node_level[rows] = k
        self.steps: List[Dict[str, np.ndarray]] = []
        for k, rows in enumerate(graph.levels):
            if k == 0:
                continue
            rows = np.asarray(rows, dtype=np.int64)
            # Rows are unique; a stable argsort makes searchsorted valid
            # even if a caller hands us an unsorted level.
            sorter = np.argsort(rows, kind="stable")
            sorted_rows = rows[sorter]
            step = {"dst": rows}
            for kind, edges in (("net", graph.net_edges),
                                ("cell", graph.cell_edges)):
                if edges.shape[1]:
                    mask = node_level[edges[1]] == k
                    src = edges[0][mask]
                    dst = edges[1][mask]
                else:
                    src = dst = np.zeros(0, dtype=np.int64)
                if dst.size:
                    dst_local = sorter[np.searchsorted(sorted_rows, dst)]
                    counts = np.bincount(dst_local, minlength=len(rows))
                    counts = np.maximum(counts, 1).astype(float)
                else:
                    dst_local = np.zeros(0, dtype=np.int64)
                    counts = np.ones(len(rows))
                step[f"{kind}_src"] = src
                step[f"{kind}_dst_local"] = dst_local
                step[f"{kind}_inv_count"] = (1.0 / counts)[:, None]
            self.steps.append(step)


def _plan_for(graph: PinGraph) -> _LevelPlan:
    """The graph's level plan, memoised on the graph object itself.

    PinGraphs are immutable after encoding, so the plan never needs
    invalidation, and tying its lifetime to the graph avoids both
    unbounded module caches and stale-id lookups.
    """
    plan = getattr(graph, "_gnn_plan", None)
    if plan is None:
        plan = _LevelPlan(graph)
        graph._gnn_plan = plan
    return plan


def levelized_sweep(s: Tensor, w_net: Tensor, w_cell: Tensor,
                    plan: _LevelPlan, level0: np.ndarray,
                    num_nodes: int) -> Tensor:
    """The whole levelised propagation as ONE autograd node.

    The ``levelized_sweep`` registry op (:mod:`repro.nn.ops`): its
    forward writes each node's row of ``h`` once, at its own level, in
    plain numpy; its backward replays the levels in reverse topological
    order — the hand-written adjoint of the forward sweep.
    """
    return apply("levelized_sweep", (s, w_net, w_cell),
                 {"plan": plan, "level0": level0, "num_nodes": num_nodes})


class TimingGNN(Module):
    """Levelised heterogeneous message passing over a :class:`PinGraph`.

    Parameters
    ----------
    in_features:
        Node feature width (3 numeric + merged gate vocabulary).
    hidden:
        Embedding width carried through the sweep.
    out_features:
        Width of the projected per-pin output embedding.
    rng:
        Generator for weight init.
    """

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        self.lin_self = Linear(in_features, hidden, rng)
        self.lin_net = Linear(hidden, hidden, rng, bias=False)
        self.lin_cell = Linear(hidden, hidden, rng, bias=False)
        self.lin_out = Linear(hidden, out_features, rng)

    def node_embeddings(self, graph: PinGraph) -> Tensor:
        """Embeddings for every pin, ``(N, hidden)``."""
        with timed("gnn.sweep"):
            s = self.lin_self(Tensor(graph.features))
            if not graph.levels:
                return s.relu()
            return levelized_sweep(
                s, self.lin_net.weight, self.lin_cell.weight,
                _plan_for(graph), graph.levels[0], graph.num_nodes,
            )

    def forward(self, graph: PinGraph,
                endpoint_rows: Optional[np.ndarray] = None) -> Tensor:
        """Timing-path embeddings at (a subset of) the endpoints.

        Parameters
        ----------
        graph:
            Encoded design.
        endpoint_rows:
            Rows to read out; defaults to all of the graph's endpoints.

        Returns
        -------
        Tensor
            ``(K, out_features)`` path embeddings.
        """
        rows = endpoint_rows if endpoint_rows is not None \
            else graph.endpoint_rows
        h = self.node_embeddings(graph)
        return self.lin_out(gather_rows(h, rows))
