"""Checkpointing a *trained* predictor for serving.

``Module.state_dict`` round-trips a module's trainable parameters,
but a deployable :class:`~repro.model.TimingPredictor` is more than its
weights: inference (Equation 7) reads the node-population sums and
counts that ``finalize_node_priors`` records on the instance, and
reads each node's prior from them per query.  This module persists the
whole serving state — constructor config, every tensor (including
ablation-frozen ones), population sums/counts — in one ``.npz`` with
no pickled objects, so ``repro train --save-model`` and
``repro predict --model`` compose into a train-once/serve-many flow.

Format version 2 holds exactly that.  Version 1 archives also carried
``prior::mu::<node>``/``prior::log_var::<node>`` entries, a function
of the weights and the population; they still load, and those entries
are ignored.  A build that reads only version 1 refuses a version-2
archive at load, so a hot reload of one keeps the old model serving.

Persistence is crash-safe: :func:`save_predictor` stages the archive
and renames it into place (see
:func:`repro.nn.serialization.atomic_savez`), so a crash mid-save can
never leave a truncated model file, and the checkpoint lands at
*exactly* the requested path — numpy's silent ``.npz`` suffix append
(saving to ``model`` producing ``model.npz``) no longer applies.
:func:`load_predictor` takes the one restore path of
:mod:`repro.nn.serialization`: it stages every archive entry and
checks every tensor's name and shape *before* touching a model,
raising one typed :class:`~repro.nn.CheckpointError` naming the
offending key; a checkpoint that fails mid-load cannot yield a
half-mutated predictor.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..model import TimingPredictor
from ..nn.serialization import (CheckpointError, atomic_savez,
                                check_tensor_set, read_archive)

__all__ = ["CheckpointError", "load_predictor", "save_predictor"]

_FORMAT_VERSION = 2

#: Versions :func:`load_predictor` reads (1 carries ignored priors).
_READABLE_VERSIONS = (1, 2)


def save_predictor(model: TimingPredictor,
                   path: Union[str, Path]) -> Path:
    """Write a trained predictor (weights + node population) to ``path``.

    Atomic (temp file + ``os.replace``) and suffix-exact: the file
    lands at ``path`` verbatim.  Returns the written path.

    Raises
    ------
    RuntimeError
        If the model's node population was never finalised — an
        untrained predictor cannot serve Equation (7) and must not be
        deployable.
    """
    population = model._population
    if population is None:
        raise RuntimeError(
            "predictor has no finalised node population; train it (or "
            "call finalize_node_priors) before saving a serving "
            "checkpoint"
        )
    arrays: Dict[str, np.ndarray] = {
        "meta": np.array(json.dumps({
            "format_version": _FORMAT_VERSION,
            "init_config": model.init_config,
        })),
        "pop::ud_sum": population["ud_sum"],
        "pop::ud_count": np.array(population["ud_count"]),
    }
    for name, tensor in model.named_tensors():
        arrays[f"param::{name}"] = tensor.data
    for node, value in population["un_sum"].items():
        arrays[f"pop::un_sum::{node}"] = value
        arrays[f"pop::un_count::{node}"] = \
            np.array(population["un_count"][node])
    return atomic_savez(path, arrays)


def _resolve_checkpoint_path(path: Union[str, Path]) -> Path:
    """``path``, or its legacy ``.npz``-suffixed sibling if only that
    exists (checkpoints written before the atomic writer pinned the
    exact name)."""
    path = Path(path)
    if not path.is_file():
        legacy = path.with_name(path.name + ".npz")
        if legacy.is_file():
            return legacy
    return path


def load_predictor(path: Union[str, Path], *,
                   in_features: Optional[int] = None) -> TimingPredictor:
    """Rebuild a serving-ready predictor saved by :func:`save_predictor`.

    ``in_features``, when given, is the input width of the designs the
    predictor is for; a checkpoint of another width is refused from
    its ``meta`` alone, before any model is built.

    Raises
    ------
    CheckpointError
        If the archive is unreadable, from an unsupported version, of
        the wrong input width, or missing/mismatching any required key
        — diagnosed *before* the returned model exists, so no
        half-loaded predictor can escape.
    """
    archive = read_archive(_resolve_checkpoint_path(path),
                           "predictor checkpoint", _READABLE_VERSIONS)
    init_config = archive.meta_field("init_config", "in_features")
    wanted = init_config["in_features"]
    if in_features is not None and wanted != in_features:
        raise archive.error(
            f"expects {wanted} input features, the designs have "
            f"{in_features}")

    # Stage the serving state fully before any model is built, so a
    # missing key can never abandon a partially populated predictor.
    un_sum = archive.section("pop::un_sum::")
    population = {
        "ud_sum": archive.require("pop::ud_sum"),
        "ud_count": float(archive.require("pop::ud_count")),
        "un_sum": un_sum,
        "un_count": {node: float(archive.require(f"pop::un_count::{node}"))
                     for node in un_sum},
    }

    try:
        model = TimingPredictor(**init_config)
    except (TypeError, ValueError) as exc:
        raise archive.error(
            f"key 'meta.init_config' does not build a TimingPredictor: "
            f"{exc}") from exc
    tensors = dict(model.named_tensors())
    params = archive.section("param::")
    check_tensor_set(tensors, params, "param::", archive.source)
    for name, value in params.items():
        # repro-check: disable=tensor-data-mutation -- checkpoint load writes leaf tensors before any graph exists
        tensors[name].data[...] = value
    model._population = population
    return model
