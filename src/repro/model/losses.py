"""Feature alignment losses (Section 3.3), generalized to K nodes.

- :func:`node_contrastive_loss` — Equations (3)/(4): pull node-dependent
  features from the same technology node together, push the two nodes
  apart.  We implement the standard supervised-contrastive form (with the
  log inside the positive sum, which Equation (3) elides — without the
  log the quantity is not a proper contrastive objective).
- :func:`cmd_loss` — Equation (5): Central Moment Discrepancy between the
  design-dependent feature distributions of the two nodes, with moments
  up to order 5 on the tanh-bounded interval (-1, 1).

The ``*_multi`` variants take a *list* of per-node feature sets instead
of the paper's hard-coded (source, target) pair: the contrastive loss
uses K-way anchor sets (each node's rows are positives for each other,
every other node's rows are negatives), and the CMD matches each source
node against the target.  With exactly two groups both are
**bit-for-bit** identical to the pair forms — the op sequence is the
same — which is what lets the K-node trainer degrade exactly to the
paper's two-node pipeline (DESIGN.md §15).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import Tensor, concatenate
from ..nn import functional as F

_EPS = 1e-8


def _l2_normalize(u: Tensor) -> Tensor:
    norms = ((u * u).sum(axis=1, keepdims=True) + _EPS) ** 0.5
    return u / norms


def node_contrastive_loss(u_source: Tensor, u_target: Tensor,
                          temperature: float = 0.5,
                          normalize: bool = True) -> Tensor:
    """Node-based supervised contrastive loss over ``u_n`` features.

    Parameters
    ----------
    u_source / u_target:
        Node-dependent features from the source (130nm) and target (7nm)
        paths in the batch, shapes ``(Ks, d)`` / ``(Kt, d)``.
    temperature:
        Softmax temperature tau of Equation (3).
    normalize:
        L2-normalise features first (standard practice; keeps the dot
        products in a stable range).

    Returns
    -------
    Tensor
        Scalar loss: mean anchor loss of the source set plus mean anchor
        loss of the target set (Equation 4's per-set normalisation).
    """
    return node_contrastive_loss_multi((u_source, u_target),
                                       temperature=temperature,
                                       normalize=normalize)


def node_contrastive_loss_multi(groups: Sequence[Tensor],
                                temperature: float = 0.5,
                                normalize: bool = True) -> Tensor:
    """K-way node contrastive loss over per-node feature sets.

    Parameters
    ----------
    groups:
        One ``(K_i, d)`` feature set per technology node (at least two
        groups, each with at least two rows).  Rows of the same group
        are mutual positives; every other group's rows are negatives.
    temperature / normalize:
        As in :func:`node_contrastive_loss`.

    Returns
    -------
    Tensor
        Scalar: the sum over groups of that group's mean anchor loss —
        Equation 4's per-set normalisation, applied per node.  With two
        groups this is bit-for-bit :func:`node_contrastive_loss`.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need feature sets from at least two nodes")
    sizes = [len(g) for g in groups]
    if min(sizes) < 2:
        raise ValueError("need at least two paths per node for contrast")
    features = concatenate(groups, axis=0)
    if normalize:
        features = _l2_normalize(features)
    k = sum(sizes)

    logits = (features @ features.T) * (1.0 / temperature)
    # Exclude self-similarity from every denominator.
    self_mask = np.eye(k) * 1e9
    logits = logits - Tensor(self_mask)
    log_prob = F.log_softmax(logits, axis=1)

    # Block-diagonal positive mask: one block per node group.
    positives = np.zeros((k, k))
    lo = 0
    for size in sizes:
        positives[lo:lo + size, lo:lo + size] = 1.0
        lo += size
    np.fill_diagonal(positives, 0.0)
    pos_counts = positives.sum(axis=1, keepdims=True)

    anchor_loss = -(log_prob * Tensor(positives)).sum(axis=1, keepdims=True) \
        / Tensor(pos_counts)
    total = None
    lo = 0
    for size in sizes:
        group_mean = anchor_loss[lo:lo + size].mean()
        lo += size
        total = group_mean if total is None else total + group_mean
    return total


def cmd_loss(u_source: Tensor, u_target: Tensor, max_order: int = 5,
             bound: float = 1.0) -> Tensor:
    """Central Moment Discrepancy between two feature sets.

    Parameters
    ----------
    u_source / u_target:
        Design-dependent features of the two nodes, bounded in
        ``(-bound, bound)`` by the disentangler's tanh.
    max_order:
        Highest central moment matched (paper uses 5).
    bound:
        Half-width of the support interval ``[a, b] = [-bound, bound]``.

    Returns
    -------
    Tensor
        Scalar CMD value (Equation 5).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    interval = 2.0 * bound  # |b - a|

    mean_s = u_source.mean(axis=0)
    mean_t = u_target.mean(axis=0)
    diff = mean_s - mean_t
    total = ((diff * diff).sum() + _EPS) ** 0.5 * (1.0 / interval)

    centered_s = u_source - mean_s
    centered_t = u_target - mean_t
    for order in range(2, max_order + 1):
        m_s = (centered_s ** float(order)).mean(axis=0)
        m_t = (centered_t ** float(order)).mean(axis=0)
        d = m_s - m_t
        total = total + ((d * d).sum() + _EPS) ** 0.5 \
            * (1.0 / interval ** order)
    return total


def cmd_loss_multi(groups: Sequence[Tensor], max_order: int = 5,
                   bound: float = 1.0) -> Tensor:
    """CMD between each source node's feature set and the target's.

    Parameters
    ----------
    groups:
        One ``(K_i, d)`` design-dependent feature set per node, sources
        first and the target last (the trainer's node order).
    max_order / bound:
        As in :func:`cmd_loss`.

    Returns
    -------
    Tensor
        Scalar: the sum over sources of ``cmd_loss(source, target)``.
        A single pair is returned as-is — no extra arithmetic — so with
        two groups this is bit-for-bit :func:`cmd_loss`.
    """
    groups = list(groups)
    if len(groups) < 2:
        raise ValueError("need feature sets from at least two nodes")
    *sources, target = groups
    total = None
    for source in sources:
        term = cmd_loss(source, target, max_order=max_order, bound=bound)
        total = term if total is None else total + term
    return total
