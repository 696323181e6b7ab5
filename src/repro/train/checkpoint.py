"""Crash-safe training checkpoints: capture, persist, restore.

A training run is resumable bit-for-bit when five pieces of state
survive the crash: the model tensors (all of them, frozen ones
included), the optimiser's internal buffers (Adam moments + step
count), every RNG that training consumes (the batch-sampling generator
and the Bayesian readout's MC-noise generator), the selection state
(best held-out checkpoint), and the step index.
:func:`save_checkpoint` packs exactly that into one ``checkpoint.npz``
— numpy arrays plus a JSON ``meta`` entry, no pickled objects — and
writes it atomically (temp file + ``os.replace``, see
:func:`repro.nn.serialization.atomic_savez`), so a crash *during*
checkpointing leaves the previous checkpoint intact.

The archive layout::

    meta                 JSON: version, step, TrainConfig, RNG states,
                         optimizer scalars, history, ...
    param::<name>        every tensor of the model tree
    opt::<buffer>::<i>   per-parameter optimiser buffers (Adam m/v)
    keeper::<name>       best-validation snapshot (when selection is on)
    holdout::<design>    held-out endpoint indices (resume fingerprint)

``repro train --resume RUNDIR`` and
:meth:`repro.train.OursTrainer.load_checkpoint` consume this module;
see DESIGN.md §10 for the resume semantics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..nn.serialization import (Archive, CheckpointError, atomic_savez,
                                read_archive)

__all__ = ["CHECKPOINT_NAME", "CHECKPOINT_VERSION", "CheckpointError",
           "TrainingCheckpoint", "capture_rng", "load_checkpoint",
           "optimizer_entries", "restore_rng", "save_checkpoint"]

#: Default checkpoint filename inside a run directory.
CHECKPOINT_NAME = "checkpoint.npz"

CHECKPOINT_VERSION = 1

#: Retired ``TrainConfig`` keys, each mapped to the one value today's
#: trainer still runs.  Checkpoints written before a key was retired
#: carry it: holding that value, it is dropped and the run resumes
#: bit-for-bit; any other value selected a code path that no longer
#: exists, so the checkpoint cannot be continued.
RETIRED_CONFIG_KEYS: Dict[str, Any] = {
    # fused step vs the deleted per-design looped step
    "fused": True,
    # start fraction of stochastic weight averaging; 1.0 never averaged
    "swa_fraction": 1.0,
    # K-node CMD coupling; the deleted "pairwise" coupled every node pair
    "cmd_mode": "vs-target",
    # weight of the prior-likelihood term; the term is now unconditional
    "prior_weight": 1.0,
}


# ----------------------------------------------------------------------
# RNG state capture
# ----------------------------------------------------------------------
def capture_rng(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's bit-generator state as a JSON-able dict.

    Numpy exposes the full internal state (for PCG64: two 128-bit
    integers) as plain Python ints, so the round trip through JSON is
    exact and the restored generator continues the *same* stream.
    """
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator,
                state: Mapping[str, Any]) -> None:
    """Load a :func:`capture_rng` state back into ``rng`` in place."""
    rng.bit_generator.state = dict(state)


# ----------------------------------------------------------------------
# Checkpoint payload
# ----------------------------------------------------------------------
@dataclass
class TrainingCheckpoint:
    """Everything :func:`load_checkpoint` recovers from the archive."""

    step: int
    config: Dict[str, Any]
    params: Dict[str, np.ndarray]
    optimizer: Dict[str, Any]
    rng_states: Dict[str, Any]
    keeper: Optional[Dict[str, Any]] = None
    holdout: Optional[Dict[str, np.ndarray]] = None
    history: List[Dict[str, Any]] = field(default_factory=list)
    #: Informational metadata (the trainer records its node chain and
    #: target node).  Never binding: resume validates the config, not
    #: this dict, so unknown keys are ignored — e.g. ``workers`` in
    #: checkpoints written by the since-removed data-parallel trainer.
    extra: Dict[str, Any] = field(default_factory=dict)
    #: ``"training checkpoint <path>"``: what error messages name.
    source: str = "training checkpoint"


def optimizer_entries(state: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """An optimiser state dict's per-parameter buffers under their
    archive names, ``opt::<buffer>::<i>`` (absent buffers omitted)."""
    return {f"opt::{key}::{i}": buf
            for key, value in state.items() if isinstance(value, list)
            for i, buf in enumerate(value) if buf is not None}


def _flatten_optimizer(state: Mapping[str, Any],
                       arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Split an optimiser state dict into JSON scalars + npz arrays."""
    meta: Dict[str, Any] = {"scalars": {}, "lists": {}}
    for key, value in state.items():
        if isinstance(value, list):
            present = [i for i, buf in enumerate(value) if buf is not None]
            meta["lists"][key] = {"len": len(value), "present": present}
        else:
            meta["scalars"][key] = value
    arrays.update(optimizer_entries(state))
    return meta


def _inflate_optimizer(archive: Archive) -> Dict[str, Any]:
    """Rebuild the optimiser state dict from meta + archive arrays."""
    meta = archive.meta_field("optimizer", "scalars", "lists")
    state: Dict[str, Any] = dict(meta["scalars"])
    for key, spec in meta["lists"].items():
        buffers: List[Optional[np.ndarray]] = [None] * int(spec["len"])
        for i in spec["present"]:
            buffers[int(i)] = archive.require(f"opt::{key}::{i}")
        state[key] = buffers
    return state


def save_checkpoint(path: Union[str, Path], *, step: int,
                    config: Mapping[str, Any],
                    model: Any, optimizer: Any,
                    trainer_rng: np.random.Generator,
                    noise_rng: np.random.Generator,
                    keeper: Any = None, selector: Any = None,
                    history: Sequence[Mapping[str, Any]] = (),
                    extra: Optional[Mapping[str, Any]] = None) -> Path:
    """Atomically persist a mid-run training snapshot to ``path``.

    ``step`` counts *completed* optimisation steps; a resumed run
    continues at exactly that index.  ``model`` contributes every
    tensor in its module tree (``Module.named_tensors``);
    ``optimizer``, ``keeper`` and ``selector`` contribute their
    ``state_dict()``.
    """
    arrays: Dict[str, np.ndarray] = {}
    opt_meta = _flatten_optimizer(optimizer.state_dict(), arrays)

    keeper_meta: Optional[Dict[str, Any]] = None
    if keeper is not None:
        keeper_state = keeper.state_dict()
        keeper_meta = {"best_score": keeper_state["best_score"],
                       "has_state": keeper_state["best_state"] is not None}
        if keeper_state["best_state"] is not None:
            for name, value in keeper_state["best_state"].items():
                arrays[f"keeper::{name}"] = value

    holdout_names: List[str] = []
    if selector is not None:
        for name, pool in selector.state_dict().items():
            holdout_names.append(name)
            arrays[f"holdout::{name}"] = pool

    for name, tensor in model.named_tensors():
        arrays[f"param::{name}"] = tensor.data

    meta = {
        "format_version": CHECKPOINT_VERSION,
        "step": int(step),
        "config": dict(config),
        "optimizer": opt_meta,
        "rng_states": {"train": capture_rng(trainer_rng),
                       "noise": capture_rng(noise_rng)},
        "keeper": keeper_meta,
        "holdout_designs": holdout_names,
        "history": [dict(record) for record in history],
        "extra": {} if extra is None else dict(extra),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    return atomic_savez(path, arrays)


def load_checkpoint(path: Union[str, Path]) -> TrainingCheckpoint:
    """Read a :func:`save_checkpoint` archive back into memory.

    The archive is staged through :func:`repro.nn.serialization.
    read_archive`, so a truncated or incomplete checkpoint raises one
    typed :class:`CheckpointError` naming the offending key before any
    object is built.  Whether the staged tensors fit a model is
    :meth:`repro.train.OursTrainer.load_checkpoint`'s check.
    """
    archive = read_archive(path, "training checkpoint",
                           (CHECKPOINT_VERSION,))
    config = dict(archive.meta_field("config"))
    for key, kept in RETIRED_CONFIG_KEYS.items():
        value = config.pop(key, kept)
        if value != kept:
            raise archive.error(
                f"was written with the retired config key {key}={value!r}; "
                f"only {key}={kept!r} can be resumed, the code path it "
                "selected no longer exists")

    keeper: Optional[Dict[str, Any]] = None
    keeper_meta = archive.meta.get("keeper")
    if keeper_meta is not None:
        keeper = {"best_score": keeper_meta["best_score"],
                  "best_state": archive.section("keeper::")
                  if keeper_meta["has_state"] else None}

    holdout: Optional[Dict[str, np.ndarray]] = None
    if archive.meta.get("holdout_designs"):
        holdout = {name: archive.require(f"holdout::{name}")
                   for name in archive.meta["holdout_designs"]}

    return TrainingCheckpoint(
        step=int(archive.meta_field("step")),
        config=config,
        params=archive.section("param::"),
        optimizer=_inflate_optimizer(archive),
        rng_states=dict(archive.meta_field("rng_states")),
        keeper=keeper,
        holdout=holdout,
        history=list(archive.meta.get("history", [])),
        extra=dict(archive.meta.get("extra") or {}),
        source=archive.source,
    )
