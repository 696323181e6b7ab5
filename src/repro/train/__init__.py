"""Training loops, baseline strategies, and metrics."""

from .batching import sample_endpoints, split_by_node
from .checkpoint import (
    CHECKPOINT_NAME,
    CheckpointError,
    TrainingCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .fused import FusedDesignBatch, merge_pin_graphs, slice_ranges
from .metrics import evaluate_per_design, mae, r2_score, rmse
from .strategies import (
    BASELINE_STRATEGIES,
    measure_inference_runtime,
    predict_head_for_node,
    train_adv_only,
    train_param_share,
    train_pt_ft,
    train_simple_merge,
)
from .trainer import OursTrainer, TrainConfig, train_ours

__all__ = [
    "BASELINE_STRATEGIES",
    "CHECKPOINT_NAME",
    "CheckpointError",
    "FusedDesignBatch",
    "OursTrainer",
    "TrainConfig",
    "TrainingCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "evaluate_per_design",
    "merge_pin_graphs",
    "slice_ranges",
    "mae",
    "measure_inference_runtime",
    "predict_head_for_node",
    "r2_score",
    "rmse",
    "sample_endpoints",
    "split_by_node",
    "train_adv_only",
    "train_ours",
    "train_param_share",
    "train_pt_ft",
    "train_simple_merge",
]
