"""Training loop for the paper's full model (Equation 12).

Each step samples a batch of paths from every training design, computes

``L = sum ELBO-terms + gamma1 * L_CLR + gamma2 * L_CMD``

and takes an Adam step.  The ELBO priors are rebuilt every step from the
current batch's disentangled features (the amortisation trick of
Equation 10), so no persistent node statistics are needed.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..flow import DesignData
from ..model import (TimingPredictor, cmd_loss_multi,
                     node_contrastive_loss_multi)
from ..nn import (Adam, CheckpointError, CompiledStep, CompileError,
                  ReplayMismatch, Tensor, step_index, step_input, trace)
from ..nn.serialization import check_tensor_set
from ..obs import NullRunLogger, RunLogger
from ..util import timed
from .batching import sample_endpoints, sample_from_pool
from .checkpoint import (CHECKPOINT_NAME, TrainingCheckpoint,
                         optimizer_entries, restore_rng, save_checkpoint)
from .checkpoint import load_checkpoint as read_checkpoint
from .fused import FusedDesignBatch, slice_ranges
from .selection import CheckpointKeeper, HoldoutSelector


@dataclass
class TrainConfig:
    """Hyper-parameters of the training loop.

    ``gamma1``/``gamma2`` default to 1/30: the paper's 10/100 rescaled
    for this reproduction's feature width (EXPERIMENTS.md,
    "Hyper-parameter translation").  ``steps`` plays the role of the
    paper's epochs (each step touches every design once); defaults are
    sized for the scaled-down reproduction.
    """

    steps: int = 150
    lr: float = 2e-3
    batch_endpoints: int = 48
    gamma1: float = 1.0
    gamma2: float = 30.0
    kl_weight: float = 1.0
    temperature: float = 0.5
    cmd_order: int = 5
    grad_clip: float = 5.0
    warmup_fraction: float = 0.3
    lr_decay: float = 0.1
    holdout_fraction: float = 0.25
    eval_every: int = 15
    seed: int = 0
    #: Write a crash-resume checkpoint every N completed steps
    #: (``0`` disables periodic checkpoints; a graceful-stop checkpoint
    #: is still written when a stop is requested mid-run).
    checkpoint_every: int = 0
    #: Graph-compile the training step: trace the op graph once, then
    #: replay it as a flat schedule of the same registry ops over
    #: preallocated buffers (see :mod:`repro.nn.compile`).  Bit-for-bit identical to eager
    #: execution in float64, so eager and compiled runs (and their
    #: checkpoints) are interchangeable.  Shape changes retrace
    #: automatically; compile errors fall back to eager.
    compile: bool = True
    #: Numeric precision of the *compiled* step: ``"float64"`` (default,
    #: bit-exact vs eager) or ``"float32"`` (faster, ~1e-5 relative
    #: loss deviation; see DESIGN.md §11).  Eager execution is always
    #: float64, so float32 requires the compiled step.
    dtype: str = "float64"
    #: Ordered node labels of the training chain, sources first (e.g.
    #: ``["130nm", "45nm", "7nm"]``).  ``None`` (the default) derives
    #: the order from the designs — every non-target node in first-seen
    #: order, then the target — which reproduces the historical
    #: two-node behaviour exactly.  Stored as a list so the checkpoint
    #: config diff survives its JSON round trip.
    nodes: Optional[List[str]] = None
    #: The transfer target's node label; all other nodes are sources.
    target_node: str = "7nm"

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {self.dtype!r}"
            )
        if self.dtype == "float32" and not self.compile:
            raise ValueError(
                "dtype='float32' runs only in the compiled step; "
                "set compile=True (or use float64)"
            )
        if self.nodes is not None:
            self.nodes = list(self.nodes)
            if len(self.nodes) < 2:
                raise ValueError(
                    f"nodes needs at least a source and a target, "
                    f"got {self.nodes}"
                )
            if len(set(self.nodes)) != len(self.nodes):
                raise ValueError(f"duplicate node labels in {self.nodes}")
            if self.target_node not in self.nodes:
                raise ValueError(
                    f"target_node {self.target_node!r} is not in "
                    f"nodes {self.nodes}"
                )


class OursTrainer:
    """Trains a :class:`TimingPredictor` on mixed-node data.

    Parameters
    ----------
    model:
        The predictor to optimise (modified in place).
    designs:
        Training designs from both nodes; the split is derived from each
        design's ``node`` attribute.
    config:
        Loop hyper-parameters.
    logger:
        Optional :class:`~repro.obs.RunLogger`; every step, validation
        event and the final-weights decision are streamed to it.  The
        default records nothing.
    checkpoint_path:
        Where :meth:`save_checkpoint` writes; defaults to
        ``<logger.run_dir>/checkpoint.npz`` when the logger has a run
        directory, else checkpointing is unavailable until a path is
        given.
    """

    def __init__(self, model: TimingPredictor,
                 designs: Sequence[DesignData],
                 config: Optional[TrainConfig] = None,
                 logger: Optional[RunLogger] = None,
                 checkpoint_path: Union[str, Path, None] = None) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.logger = logger if logger is not None else NullRunLogger()
        self._checkpoint_path = checkpoint_path
        # K-node grouping: designs are ordered node by node — source
        # nodes in chain order, the target node last — and each node's
        # designs keep their input order.  With the default two-node
        # config this reduces exactly to the historical
        # source-then-target split.
        cfg = self.config
        self.target_node = cfg.target_node
        seen: List[str] = []
        for design in designs:
            if design.node not in seen:
                seen.append(design.node)
        if cfg.nodes is not None:
            unknown = sorted(set(seen) - set(cfg.nodes))
            if unknown:
                raise ValueError(
                    f"designs from nodes {unknown} are not in "
                    f"config.nodes {cfg.nodes}"
                )
            order = [n for n in cfg.nodes if n != self.target_node] \
                + [self.target_node]
        else:
            order = [n for n in seen if n != self.target_node] \
                + [self.target_node]
        groups = {node: [d for d in designs if d.node == node]
                  for node in order}
        # A --nodes chain with more source nodes than source designs
        # leaves a node empty (the ladder split deals source designs
        # round-robin across the source nodes); empty groups are
        # dropped so the per-node blocks stay well-formed.
        self.node_order: List[str] = [n for n in order if groups[n]]
        self.node_groups: Dict[str, List[DesignData]] = {
            n: groups[n] for n in self.node_order}
        self.source = [d for n in self.node_order
                       if n != self.target_node
                       for d in self.node_groups[n]]
        self.target = groups.get(self.target_node, [])
        if not self.source or not self.target:
            raise ValueError(
                "ours needs designs from both nodes "
                f"(got {len(self.source)} source, {len(self.target)} target)"
            )
        self.rng = np.random.default_rng(self.config.seed)
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)
        self.history: List[Dict[str, float]] = []
        #: Which weights ``fit`` left in the model: ``"final-iterate"``
        #: or ``"best-checkpoint"`` (set at the end of fit).
        self.final_weights_source: Optional[str] = None
        # Validation-based checkpoint selection on held-out 7nm paths.
        self.selector: Optional[HoldoutSelector] = None
        if 0.0 < self.config.holdout_fraction < 1.0:
            self.selector = HoldoutSelector(
                designs, fraction=self.config.holdout_fraction,
                seed=self.config.seed, target_node=self.target_node,
            )
        # Per-node observation variance for the ELBO likelihood: the
        # variance of the node's training labels.  This conditions the
        # likelihood's scale on the node population N, so the 130nm
        # node's absolutely-larger errors cannot drown the 7nm signal.
        self.node_obs_var: Dict[str, float] = {}
        for node in self.node_order:
            labels = np.concatenate([d.labels
                                     for d in self.node_groups[node]])
            self.node_obs_var[node] = float(max(labels.var(), 1e-6))
        # Fused batching state: the disjoint-union graph is static
        # across steps (only endpoint subsets change), so it is built
        # once, lazily, and its GNN level plan is memoised on it.
        self._fused_batch: Optional[FusedDesignBatch] = None
        # One stacked-images buffer per program signature, refilled in
        # place every step; a float64 program adopts it as its bound
        # input, so its replay copies nothing either.
        self._image_buffers: Dict[Tuple, np.ndarray] = {}
        # Compiled-step state: one CompiledStep per program signature
        # (per-design subset sizes, dtype) — a shape change simply
        # compiles a new program; warmup only changes step inputs.
        # ``_compile_disabled`` latches on an unrecoverable CompileError
        # (e.g. an unregistered op) and drops the run to eager;
        # ``retraces`` counts replays invalidated by rebound parameter
        # arrays, capped per signature.
        self._programs: Dict[Tuple, CompiledStep] = {}
        self._retrace_counts: Dict[Tuple, int] = {}
        self._max_retraces = 3
        self._compile_disabled = False
        self.retraces = 0
        #: When True, replays time every kernel into the
        #: :mod:`repro.util` timing registry (``op.fwd.*``/``op.bwd.*``,
        #: CLI ``--profile``).
        self.profile_ops = False
        # Crash-resume lifecycle state.  ``keeper`` lives on the
        # instance (not as a fit() local) so a checkpoint can capture
        # and restore the best-validation snapshot.  ``_start_step`` is
        # the absolute step fit() resumes from (0 = fresh run / next
        # sequential fit), and ``interrupted`` reports whether the last
        # fit() ended on a requested stop instead of running to
        # completion.
        self.keeper: Optional[CheckpointKeeper] = \
            CheckpointKeeper(self.model) if self.selector else None
        self._start_step = 0
        self._stop_requested = False
        self.interrupted = False

    # -- crash-safe lifecycle ------------------------------------------
    def request_stop(self) -> None:
        """Ask fit() to stop gracefully at the next step boundary.

        Safe to call from a signal handler: it only flips a flag.  The
        in-flight step completes, a final checkpoint is written (when a
        checkpoint path is available), ``interrupted`` is set, and
        ``fit`` returns without the final-weights selection — the run
        is meant to be resumed, not served.
        """
        self._stop_requested = True

    def checkpoint_path(self) -> Optional[Path]:
        """Where checkpoints go: explicit path, else the logger's run dir."""
        if self._checkpoint_path is not None:
            return Path(self._checkpoint_path)
        run_dir = getattr(self.logger, "run_dir", None)
        return Path(run_dir) / CHECKPOINT_NAME if run_dir else None

    def save_checkpoint(self, step: Optional[int] = None,
                        path: Union[str, Path, None] = None) -> Path:
        """Atomically write a resumable snapshot of the run.

        ``step`` is the number of completed steps (defaults to the
        history length, which is correct for single-``fit`` runs).
        """
        target = Path(path) if path is not None else self.checkpoint_path()
        if target is None:
            raise ValueError(
                "no checkpoint path: pass one, construct the trainer "
                "with checkpoint_path=, or use a RunLogger with a run "
                "directory"
            )
        return save_checkpoint(
            target,
            step=len(self.history) if step is None else int(step),
            config=asdict(self.config),
            model=self.model,
            optimizer=self.optimizer,
            trainer_rng=self.rng,
            noise_rng=self.model.readout._noise_rng,
            keeper=self.keeper,
            selector=self.selector,
            history=self.history,
            extra={"nodes": list(self.node_order),
                   "target_node": self.target_node},
        )

    def load_checkpoint(self, path: Union[str, Path]
                        ) -> TrainingCheckpoint:
        """Restore a :meth:`save_checkpoint` snapshot; resume via fit().

        Check, then apply (DESIGN.md §10): the config, every model
        tensor, the keeper snapshot, the optimizer buffers, both RNG
        states and the holdout fingerprint are validated before the
        first write, so a bad checkpoint raises one
        :class:`~repro.nn.CheckpointError` naming the offending key and
        leaves the trainer untouched.  After a successful load,
        ``fit()`` continues from the recorded step and reproduces the
        uninterrupted run bit-for-bit.
        """
        ckpt = read_checkpoint(path)
        source = ckpt.source
        current = asdict(self.config)
        # checkpoint_every may legitimately differ between the original
        # and the resumed invocation, and `compile` only changes *how*
        # the (bit-identical) step executes; everything else changes
        # the math.  A key absent from an older checkpoint is accepted
        # when the current value is the dataclass default — new config
        # fields must not orphan existing checkpoints (`dtype` still
        # trips this when set to float32, which is math-relevant).
        defaults = asdict(TrainConfig())
        diffs = sorted(
            key for key in set(current) | set(ckpt.config)
            if key not in ("checkpoint_every", "compile")
            and current.get(key) != ckpt.config.get(key)
            and not (key not in ckpt.config
                     and current.get(key) == defaults.get(key))
        )
        if diffs:
            raise CheckpointError(
                f"{source} was written under a different "
                f"TrainConfig (differing fields: {', '.join(diffs)}); "
                "resume with the original configuration"
            )
        tensors = dict(self.model.named_tensors())
        check_tensor_set(tensors, ckpt.params, "param::", source)
        if self.keeper is not None and ckpt.keeper is not None \
                and ckpt.keeper["best_state"] is not None:
            check_tensor_set(dict(self.model.named_parameters()),
                             ckpt.keeper["best_state"], "keeper::", source)
        check_tensor_set(optimizer_entries(self.optimizer.state_dict()),
                         optimizer_entries(ckpt.optimizer), source=source)
        rngs = {"train": self.rng, "noise": self.model.readout._noise_rng}
        for name, rng in rngs.items():
            # Into a copy: nothing is written yet.
            try:
                restore_rng(copy.deepcopy(rng), ckpt.rng_states[name])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{source} key 'meta.rng_states.{name}' is not a "
                    f"{type(rng.bit_generator).__name__} state: {exc!r}"
                ) from exc
        if (ckpt.holdout is None) != (self.selector is None):
            raise CheckpointError(
                f"{source} holdout state mismatch: checkpoint "
                f"{'has' if ckpt.holdout else 'lacks'} a holdout split, "
                f"trainer {'has' if self.selector else 'lacks'} one"
            )
        if self.selector is not None:
            try:
                self.selector.verify_state(ckpt.holdout)
            except ValueError as exc:
                raise CheckpointError(
                    f"{source} holdout fingerprint mismatch: {exc}"
                ) from exc

        # All validated — apply.  The optimizer's load checks its kind
        # and scalars before it writes anything, so it goes first.
        try:
            self.optimizer.load_state_dict(ckpt.optimizer)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"{source} optimizer state invalid: {exc}") from exc
        for name, value in ckpt.params.items():
            # repro-check: disable=tensor-data-mutation -- checkpoint load writes leaf tensors between runs
            tensors[name].data[...] = value
        for name, rng in rngs.items():
            restore_rng(rng, ckpt.rng_states[name])
        if self.keeper is not None and ckpt.keeper is not None:
            self.keeper.load_state_dict(ckpt.keeper)
        self.history = [dict(record) for record in ckpt.history]
        self._start_step = ckpt.step
        self.interrupted = False
        return ckpt

    # ------------------------------------------------------------------
    def _sample_subsets(self) -> List[np.ndarray]:
        """Per-design endpoint subsets, in source-then-target order."""
        cfg = self.config
        subsets = []
        for design in self.source + self.target:
            pool = self.selector.training_pool(design) \
                if self.selector else None
            if pool is not None:
                subsets.append(sample_from_pool(pool, cfg.batch_endpoints,
                                                self.rng))
            else:
                subsets.append(sample_endpoints(design, cfg.batch_endpoints,
                                                self.rng))
        return subsets

    def _step_inputs(self, subsets: List[np.ndarray],
                     warmup: bool) -> Dict[str, np.ndarray]:
        """Everything that varies between steps, as named plain arrays.

        These are the per-step inputs of the (compiled or eager) loss
        graph: the merged endpoint rows and stacked layout images of
        the fused batch, each design's labels, the pre-drawn
        reparameterisation noise, and the loss weights ``gamma1``,
        ``gamma2`` and ``kl_weight`` (0.0 during warmup), so the warmup
        and main phases replay one compiled program.

        Drawing the noise *here* — in the exact order the historical
        in-graph sampling consumed the generator (per design: posterior
        draw, then prior draw) — keeps the
        run's random stream byte-identical while making the loss a pure
        function of its inputs, which is what lets a compiled replay
        reproduce eager execution bit for bit.  The batch gathers draw
        no random numbers, so only the noise touches the generator.

        The images land in one buffer per program signature, so the
        array returned here is overwritten by the next step of the same
        signature.
        """
        if self._fused_batch is None:
            self._fused_batch = FusedDesignBatch(self.source + self.target)
        batch = self._fused_batch
        key = self._program_key(subsets)
        images = batch.stacked_path_images(
            subsets, out=self._image_buffers.get(key))
        self._image_buffers[key] = images
        inputs: Dict[str, np.ndarray] = {
            "rows": batch.merged_endpoint_rows(subsets),
            "images": images,
        }
        cfg = self.config
        for name in ("gamma1", "gamma2", "kl_weight"):
            inputs[name] = np.array(0.0 if warmup else getattr(cfg, name))
        readout = self.model.readout
        m = readout.feature_size
        for i, (design, subset) in enumerate(zip(self.source + self.target,
                                                 subsets)):
            labels = np.asarray(design.labels[subset], dtype=float)
            inputs[f"y{i}"] = labels.reshape(1, -1, 1)
            inputs[f"eps_q{i}"] = readout.draw_noise((len(subset), m))
            inputs[f"eps_p{i}"] = readout.draw_noise((1, m))
        return inputs

    def _loss_parts(self, subsets: List[np.ndarray],
                    inputs: Dict[str, np.ndarray]
                    ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """Build the step's loss graph from prepared inputs.

        Shared verbatim by eager execution and the compile trace:
        ``step_input``/``step_index`` register the arrays on the active
        tape during a trace and are plain wrappers otherwise, so the
        compiled program replays exactly the graph eager runs.
        """
        cfg = self.config
        gamma1 = step_input("gamma1", inputs["gamma1"])
        gamma2 = step_input("gamma2", inputs["gamma2"])
        kl_weight = step_input("kl_weight", inputs["kl_weight"])
        designs = self.source + self.target
        with timed("train.features"):
            rows = step_index("rows", inputs["rows"])
            images = step_input("images", inputs["images"])
            u, u_n, u_d = self._fused_batch.path_features_from(
                self.model, rows, images)
        z = self.model.disentangler.recombine(u_n, u_d)
        ranges = slice_ranges([len(s) for s in subsets])
        # Designs are ordered node-by-node (sources in chain order,
        # target last), so each node's block is one contiguous row range
        # of the batched features.
        node_bounds = []
        first = 0
        row_lo = 0
        for node in self.node_order:
            count = len(self.node_groups[node])
            row_hi = ranges[first + count - 1][1]
            node_bounds.append((row_lo, row_hi))
            row_lo = row_hi
            first += count
        un_groups = [u_n[lo:hi] for lo, hi in node_bounds]

        priors = {node: self.model.prior_for(un_groups[i], u_d)
                  for i, node in enumerate(self.node_order)}

        elbo_total = None
        with timed("train.elbo"):
            for i, (design, subset, (lo, hi)) in enumerate(
                    zip(designs, subsets, ranges)):
                prior_mu, prior_lv = priors[design.node]
                y = step_input(f"y{i}", inputs[f"y{i}"])
                eps_q = step_input(f"eps_q{i}", inputs[f"eps_q{i}"])
                eps_p = step_input(f"eps_p{i}", inputs[f"eps_p{i}"])
                term = self.model.readout.elbo_loss(
                    u[lo:hi], z[lo:hi], y,
                    prior_mu, prior_lv, kl_weight=kl_weight,
                    obs_var=self.node_obs_var[design.node],
                    noise=(eps_q, eps_p),
                )
                elbo_total = term if elbo_total is None \
                    else elbo_total + term

        with timed("train.align"):
            clr = node_contrastive_loss_multi(
                un_groups, temperature=cfg.temperature)
            # Slice u_d only now so the backward accumulation order into
            # u_d matches the two-node tape bit-for-bit.
            ud_groups = [u_d[lo:hi] for lo, hi in node_bounds]
            cmd = cmd_loss_multi(ud_groups, max_order=cfg.cmd_order)
        # Weight on the right: the operand order a float weight gave.
        total = elbo_total + clr * gamma1 + cmd * gamma2
        return total, elbo_total, clr, cmd

    def _program_key(self, subsets: List[np.ndarray]) -> Tuple:
        """Program signature: retrace whenever any of this changes."""
        return (tuple(len(s) for s in subsets), self.config.dtype)

    def _compile_program(self, key: Tuple, subsets: List[np.ndarray],
                         inputs: Dict[str, np.ndarray]
                         ) -> Optional[CompiledStep]:
        """Trace one step and compile it; None (eager fallback) on failure."""
        try:
            with timed("train.trace"):
                with trace() as tape:
                    total, elbo, clr, cmd = self._loss_parts(
                        subsets, inputs)
                program = CompiledStep(
                    tape, total,
                    outputs={"total": total, "elbo": elbo,
                             "contrastive": clr, "cmd": cmd},
                    dtype=self.config.dtype,
                )
        except CompileError as exc:
            self._compile_disabled = True
            self.logger.log_event(
                "note",
                message=f"step compilation failed, running eager: {exc}",
            )
            return None
        self._programs[key] = program
        return program

    def _grads_compiled(self, subsets: List[np.ndarray],
                        inputs: Dict[str, np.ndarray]
                        ) -> Optional[Dict[str, float]]:
        """Populate gradients through the compiled program, if possible.

        Returns ``None`` whenever eager execution should handle the
        step instead: compilation disabled/failed, or the per-signature
        retrace budget is exhausted (a guard against pathological
        parameter rebinding re-tracing every step).
        """
        key = self._program_key(subsets)
        if self._compile_disabled \
                or self._retrace_counts.get(key, 0) > self._max_retraces:
            return None
        for _attempt in range(2):
            program = self._programs.get(key)
            if program is None:
                program = self._compile_program(key, subsets, inputs)
                if program is None:
                    return None
            self.model.zero_grad()
            try:
                with timed("train.replay"):
                    out = program.replay(inputs,
                                         profile=self.profile_ops)
            except ReplayMismatch as exc:
                # Stale program (a parameter array was rebound or an
                # input changed shape under the same signature): drop
                # it and retrace once, this same step.
                self._programs.pop(key, None)
                self._retrace_counts[key] = \
                    self._retrace_counts.get(key, 0) + 1
                self.retraces += 1
                self.logger.log_event(
                    "note", message=f"compiled step retraced: {exc}")
                continue
            return {name: float(np.asarray(value).reshape(()))
                    for name, value in out.items()}
        return None

    def _grads_eager(self, subsets: List[np.ndarray],
                     inputs: Dict[str, np.ndarray]) -> Dict[str, float]:
        """Populate gradients eagerly (graph built per call)."""
        total, elbo, clr, cmd = self._loss_parts(subsets, inputs)
        with timed("train.backward"):
            self.model.zero_grad()
            total.backward()
        return {"total": total.item(), "elbo": elbo.item(),
                "contrastive": clr.item(), "cmd": cmd.item()}

    def step(self, warmup: bool = False) -> Dict[str, float]:
        """One optimisation step over all designs; returns loss parts.

        During warmup the alignment losses and the KL term are disabled,
        so the extractor first learns plain cross-node regression (the
        same signal PT-FT's pretraining provides) before the
        disentangle/align/Bayesian machinery shapes the feature space.

        All designs share one GNN sweep over the disjoint-union graph
        and one stacked CNN forward; per-design blocks are recovered as
        contiguous row ranges.

        With ``config.compile`` (the default) the step's op graph is
        traced once per (batch-shape, dtype) signature — the warmup
        weights are step inputs, not a second program — and
        thereafter replayed as a flat schedule of the same ops over
        preallocated buffers — bit-for-bit identical results in
        float64, so eager and compiled runs are interchangeable mid-run
        via checkpoints.  Any compile failure falls back to eager.
        """
        start = time.perf_counter()
        cfg = self.config
        subsets = self._sample_subsets()
        inputs = self._step_inputs(subsets, warmup)
        values = None
        if cfg.compile:
            values = self._grads_compiled(subsets, inputs)
        if values is None:
            values = self._grads_eager(subsets, inputs)
        grad_norm = float(self.optimizer.clip_grad_norm(cfg.grad_clip))
        self.optimizer.step()
        return {
            "total": values["total"],
            "elbo": values["elbo"],
            "contrastive": values["contrastive"],
            "cmd": values["cmd"],
            "lr": float(self.optimizer.lr),
            "grad_norm": grad_norm,
            "grad_norm_clipped": float(min(grad_norm, cfg.grad_clip)),
            "warmup": bool(warmup),
            "step_seconds": time.perf_counter() - start,
        }

    def fit(self, steps: Optional[int] = None) -> List[Dict[str, float]]:
        """Run the full loop; returns per-step loss history.

        The final weights come from exactly one source, recorded in
        ``final_weights_source`` and logged as a ``final_weights``
        telemetry event:

        - ``"best-checkpoint"`` — the best held-out validation
          snapshot, when selection is enabled and a snapshot was kept;
        - ``"final-iterate"`` — otherwise.

        After the last step the node-level priors p(W | N) are finalised
        on the training designs, which is what inference uses (Eq. 7).

        **Crash safety.**  With ``config.checkpoint_every > 0`` (and a
        resolvable checkpoint path — see :meth:`checkpoint_path`) a
        resumable snapshot is written atomically every that-many
        completed steps.  A :meth:`request_stop` (the CLI wires SIGINT/
        SIGTERM to it) finishes the in-flight step, writes one final
        checkpoint, sets ``interrupted`` and returns early — skipping
        the final-weights selection, because the run is meant to be
        resumed.  After :meth:`load_checkpoint`, ``fit`` continues from
        the recorded step and the completed run is bit-for-bit
        identical to an uninterrupted one.
        """
        steps = steps or self.config.steps
        warmup_steps = int(self.config.warmup_fraction * steps)
        base_lr = self.config.lr
        start_step = self._start_step
        if start_step == 0:
            # Fresh run (or the next sequential fit of a multi-stage
            # recipe): best-checkpoint tracking belongs to one loop
            # only.  A resumed fit keeps the state load_checkpoint
            # restored.
            if self.keeper is not None:
                self.keeper = CheckpointKeeper(self.model)
        elif start_step >= steps:
            raise ValueError(
                f"checkpoint is at step {start_step} but the run is "
                f"only {steps} steps; nothing to resume"
            )
        keeper = self.keeper
        step_offset = len(self.history)
        ckpt_path = self.checkpoint_path()
        self.interrupted = False
        self._stop_requested = False
        for t in range(start_step, steps):
            # Linear learning-rate decay stabilises the final priors.
            decay = self.config.lr_decay
            self.optimizer.lr = base_lr * (1.0 - (1.0 - decay) * t / steps)
            record = self.step(warmup=t < warmup_steps)
            self.history.append(record)
            self.logger.log_step(step_offset + (t - start_step), record)
            last = t == steps - 1
            if keeper is not None and t >= warmup_steps \
                    and (t % self.config.eval_every == 0 or last):
                self._validate_and_keep(keeper,
                                        step_offset + (t - start_step))
            done = t + 1
            if self._stop_requested and not last:
                self.interrupted = True
                self._start_step = done
                if ckpt_path is not None:
                    self.save_checkpoint(step=done, path=ckpt_path)
                self.logger.log_event(
                    "note",
                    message=f"graceful stop after step {done}/{steps}; "
                            f"checkpoint "
                            f"{'written' if ckpt_path else 'unavailable'}",
                )
                break
            if ckpt_path is not None and self.config.checkpoint_every \
                    and done % self.config.checkpoint_every == 0 \
                    and not last:
                self.save_checkpoint(step=done, path=ckpt_path)
        self.optimizer.lr = base_lr
        if self.interrupted:
            return self.history
        self._start_step = 0
        if keeper is not None and keeper.best_state is not None:
            keeper.restore()
            self.final_weights_source = "best-checkpoint"
        else:
            self.final_weights_source = "final-iterate"
        self.logger.log_event("final_weights",
                              source=self.final_weights_source)
        self.model.finalize_node_priors(self.source + self.target,
                                        seed=self.config.seed)
        return self.history

    def _validate_and_keep(self, keeper: CheckpointKeeper,
                           step: int) -> None:
        """Score the current model on held-out 7nm paths; keep if best."""
        self.model.finalize_node_priors(self.source + self.target,
                                        seed=self.config.seed)
        score = self.selector.validate(
            lambda design, idx: self.model.predict(design, idx)
        )
        best = keeper.offer(score)
        self.logger.log_validation(step, score, best)


def train_ours(designs: Sequence[DesignData], in_features: int,
               config: Optional[TrainConfig] = None,
               model_seed: int = 0,
               use_disentangle_align: bool = True,
               use_bayesian: bool = True,
               logger: Optional[RunLogger] = None) -> TimingPredictor:
    """Build and train the paper's model.

    The two ``use_*`` flags implement the Figure 8 ablations: turning off
    ``use_disentangle_align`` zeroes gamma1/gamma2 (no alignment losses),
    turning off ``use_bayesian`` fixes the readout's variance to (near)
    zero and drops the KL term, reducing it to a deterministic
    input-conditioned linear layer.
    """
    config = config or TrainConfig()
    if not use_disentangle_align:
        config = TrainConfig(**{**config.__dict__,
                                "gamma1": 0.0, "gamma2": 0.0})
    if not use_bayesian:
        config = TrainConfig(**{**config.__dict__, "kl_weight": 0.0})
    model = TimingPredictor(in_features, seed=model_seed)
    if not use_bayesian:
        _freeze_variance(model)
    OursTrainer(model, designs, config, logger=logger).fit()
    return model


def _freeze_variance(model: TimingPredictor) -> None:
    """Pin the readout's weight variance near zero (Bayesian-off ablation)."""
    for param in model.readout.logvar_net.parameters():
        # repro-check: disable=tensor-data-mutation -- ablation pins frozen leaves before training starts
        param.data[...] = 0.0
        param.requires_grad = False
    # Bias the final layer output to a very small log-variance.
    last = model.readout.logvar_net.net.modules[-1]
    # repro-check: disable=tensor-data-mutation -- ablation pins a frozen leaf before training starts
    last.bias.data[...] = -9.0
