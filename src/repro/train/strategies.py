"""The four DAC23 baseline training strategies of Table 2.

All baselines share the architecture in
:class:`~repro.model.baseline.DAC23Model` (the previous SOTA [4]); only
the training recipe changes:

- **AdvOnly** — limited 7nm data only.
- **SimpleMerge** — naive union of 130nm and 7nm data, one readout.
- **ParamShare** — shared extractor, one readout head per node [7].
- **PT-FT** — pretrain on 130nm, finetune on 7nm [6].

All four follow the paper's fixed training recipes (a set number of MSE
steps, final iterate kept).  The optional holdout machinery in
``_run_loop`` exists for the fairness ablation in EXPERIMENTS.md, where
every baseline is re-run *with* checkpoint selection.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..flow import DesignData
from ..model import DAC23Model
from ..nn import Adam, Tensor
from ..nn import functional as F
from ..obs import NullRunLogger, RunLogger
from ..util import one_blas_thread, training_step
from .batching import sample_endpoints, sample_from_pool, split_by_node
from .selection import CheckpointKeeper, HoldoutSelector
from .trainer import TrainConfig


def _mse_step(model: DAC23Model, designs: Sequence[DesignData],
              optimizer: Adam, batch_endpoints: int,
              rng: np.random.Generator, grad_clip: float,
              head_of: Callable[[DesignData], int],
              selector: Optional[HoldoutSelector] = None) -> float:
    """One MSE step over ``designs``; returns the loss value.

    Runs in :func:`~repro.util.training_step`, as the paper's model's
    step does: one BLAS thread, split CNN kernels.
    """
    with training_step():
        total = None
        for design in designs:
            pool = selector.training_pool(design) if selector else None
            if pool is not None:
                subset = sample_from_pool(pool, batch_endpoints, rng)
            else:
                subset = sample_endpoints(design, batch_endpoints, rng)
            pred = model(design, subset, head=head_of(design))
            y = Tensor(design.labels[subset].reshape(-1, 1))
            term = F.mse_loss(pred, y)
            total = term if total is None else total + term
        optimizer.zero_grad()
        total.backward()
        optimizer.clip_grad_norm(grad_clip)
        optimizer.step()
    return total.item()


@one_blas_thread()
def _run_loop(model: DAC23Model, designs: Sequence[DesignData],
              steps: int, config: TrainConfig,
              head_of: Callable[[DesignData], int],
              rng: np.random.Generator,
              selector: Optional[HoldoutSelector] = None,
              logger: Optional[RunLogger] = None,
              stage: Optional[str] = None,
              step_offset: int = 0) -> List[float]:
    """Plain MSE loop with optional held-out checkpoint selection.

    The same validation protocol the paper's model uses (see
    :mod:`repro.train.selection`) is offered to every baseline, keeping
    the Table-2 comparison apples-to-apples.  ``logger`` streams the
    same telemetry schema the paper's trainer emits (loss, lr, step
    wall-time per step; validation events; the final-weights source),
    with ``stage``/``step_offset`` distinguishing multi-phase recipes
    such as PT-FT's pretrain/finetune loops.  Like
    :meth:`~repro.train.trainer.OursTrainer.fit`, the loop runs every
    BLAS call on one thread, validations included.
    """
    logger = logger if logger is not None else NullRunLogger()
    optimizer = Adam(model.parameters(), lr=config.lr)
    keeper = CheckpointKeeper(model) if selector \
        and selector.val_designs else None
    losses = []
    for t in range(steps):
        t_start = time.perf_counter()
        losses.append(_mse_step(model, designs, optimizer,
                                config.batch_endpoints, rng,
                                config.grad_clip, head_of, selector))
        record = {"loss": losses[-1], "lr": float(optimizer.lr),
                  "step_seconds": time.perf_counter() - t_start}
        if stage is not None:
            record["stage"] = stage
        logger.log_step(step_offset + t, record)
        if keeper is not None and (t % config.eval_every == 0
                                   or t == steps - 1):
            score = selector.validate(
                lambda d, idx: model.predict(d, idx, head=head_of(d))
            )
            best = keeper.offer(score)
            logger.log_validation(step_offset + t, score, best)
    source = "final-iterate"
    if keeper is not None and keeper.best_state is not None:
        keeper.restore()
        source = "best-checkpoint"
    if stage is not None:
        logger.log_event("final_weights", source=source, stage=stage)
    else:
        logger.log_event("final_weights", source=source)
    return losses


def train_adv_only(designs: Sequence[DesignData], in_features: int,
                   config: Optional[TrainConfig] = None,
                   model_seed: int = 0,
                   use_selection: bool = False,
                   logger: Optional[RunLogger] = None) -> DAC23Model:
    """DAC23-AdvOnly: trained on the limited 7nm netlist data only.

    ``use_selection=True`` adds the same held-out checkpoint selection
    the paper's model uses (the fairness ablation in EXPERIMENTS.md);
    the default follows the paper's fixed recipe.
    """
    config = config or TrainConfig()
    _, target = split_by_node(designs)
    if not target:
        raise ValueError("AdvOnly needs 7nm training designs")
    model = DAC23Model(in_features, seed=model_seed)
    rng = np.random.default_rng(config.seed)
    selector = _selector_for(designs, config) if use_selection else None
    _run_loop(model, target, config.steps, config, lambda d: 0, rng,
              selector, logger=logger)
    return model


def train_simple_merge(designs: Sequence[DesignData], in_features: int,
                       config: Optional[TrainConfig] = None,
                       model_seed: int = 0,
                       use_selection: bool = False,
                       logger: Optional[RunLogger] = None) -> DAC23Model:
    """DAC23-SimpleMerge: naive union of both nodes, single readout.

    The arrival-time scales of the two nodes differ by an order of
    magnitude, so a single deterministic W cannot fit both — this is the
    strategy that goes *negative* R^2 in Table 2.
    """
    config = config or TrainConfig()
    model = DAC23Model(in_features, seed=model_seed)
    rng = np.random.default_rng(config.seed)
    selector = _selector_for(designs, config) if use_selection else None
    _run_loop(model, list(designs), config.steps, config, lambda d: 0,
              rng, selector, logger=logger)
    return model


def train_param_share(designs: Sequence[DesignData], in_features: int,
                      config: Optional[TrainConfig] = None,
                      model_seed: int = 0,
                      use_selection: bool = False,
                      logger: Optional[RunLogger] = None) -> DAC23Model:
    """DAC23-ParamShare: shared extractor, node-specific linear heads.

    Head 0 serves 130nm, head 1 serves 7nm; evaluation on 7nm test data
    uses head 1 (see :func:`predict_head_for_node`).
    """
    config = config or TrainConfig()
    model = DAC23Model(in_features, n_heads=2, seed=model_seed)
    rng = np.random.default_rng(config.seed)
    selector = _selector_for(designs, config) if use_selection else None
    _run_loop(model, list(designs), config.steps, config,
              lambda d: 0 if d.node == "130nm" else 1, rng, selector,
              logger=logger)
    return model


def train_pt_ft(designs: Sequence[DesignData], in_features: int,
                config: Optional[TrainConfig] = None,
                model_seed: int = 0,
                finetune_fraction: float = 0.5,
                use_selection: bool = False,
                logger: Optional[RunLogger] = None) -> DAC23Model:
    """DAC23-PT-FT: pretrain on 130nm, then finetune on 7nm.

    The finetuning stage runs ``finetune_fraction`` of the pretraining
    steps at the same learning rate, mirroring the much-fewer-steps
    recipe of [6].
    """
    config = config or TrainConfig()
    source, target = split_by_node(designs)
    if not source or not target:
        raise ValueError("PT-FT needs designs from both nodes")
    model = DAC23Model(in_features, seed=model_seed)
    rng = np.random.default_rng(config.seed)
    selector = _selector_for(designs, config) if use_selection else None
    _run_loop(model, source, config.steps, config, lambda d: 0, rng,
              logger=logger, stage="pretrain")
    ft_steps = max(1, int(config.steps * finetune_fraction))
    _run_loop(model, target, ft_steps, config, lambda d: 0, rng, selector,
              logger=logger, stage="finetune", step_offset=config.steps)
    return model


def _selector_for(designs: Sequence[DesignData],
                  config: TrainConfig) -> Optional[HoldoutSelector]:
    """The shared holdout selector, or None when selection is disabled."""
    if not 0.0 < config.holdout_fraction < 1.0:
        return None
    return HoldoutSelector(designs, fraction=config.holdout_fraction,
                           seed=config.seed)


def predict_head_for_node(model: DAC23Model, design: DesignData
                          ) -> np.ndarray:
    """Evaluate a (possibly multi-head) baseline on one design."""
    if len(model.heads) > 1:
        head = 0 if design.node == "130nm" else 1
    else:
        head = 0
    return model.predict(design, head=head)


#: Registry used by the Table-2 experiment driver.
BASELINE_STRATEGIES: Dict[str, Callable] = {
    "DAC23-AdvOnly": train_adv_only,
    "DAC23-SimpleMerge": train_simple_merge,
    "DAC23-ParamShare": train_param_share,
    "DAC23-PT-FT": train_pt_ft,
}


def measure_inference_runtime(predict: Callable[[DesignData], np.ndarray],
                              design: DesignData, repeats: int = 3) -> float:
    """Median wall-clock seconds to predict all of a design's endpoints."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        predict(design)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
