"""Experiment drivers regenerating every table and figure of the paper."""

from .datasets import (
    DATASET_SCALE,
    ExperimentDataset,
    build_dataset,
    ladder_split,
)
from .extensions import format_calibration, run_uncertainty_calibration
from .fig1 import format_fig1, run_fig1
from .ladder import (
    format_ladder_study,
    format_reverse_transfer,
    run_ladder_study,
    run_reverse_transfer,
)
from .fig6 import format_fig6, run_fig6, scale_gap
from .fig8 import format_fig8, run_fig8
from .table1 import format_table1, run_table1
from .table2 import (
    Table2Row,
    format_table2,
    run_table2,
    summarize,
    train_all_strategies,
)
from .table3 import SUBSETS, format_table3, run_table3

__all__ = [
    "DATASET_SCALE",
    "ExperimentDataset",
    "SUBSETS",
    "Table2Row",
    "build_dataset",
    "format_calibration",
    "format_fig1",
    "format_ladder_study",
    "ladder_split",
    "format_fig6",
    "format_fig8",
    "format_table1",
    "format_table2",
    "format_reverse_transfer",
    "format_table3",
    "run_fig1",
    "run_ladder_study",
    "run_reverse_transfer",
    "run_uncertainty_calibration",
    "run_fig6",
    "run_fig8",
    "run_table1",
    "run_table2",
    "run_table3",
    "scale_gap",
    "summarize",
    "train_all_strategies",
]
