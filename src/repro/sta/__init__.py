"""Static timing analysis substrate: RC/Elmore, constraints, PERT engine."""

from .constraints import ClockConstraint, derive_constraints, estimate_depth
from .engine import STAEngine, TimingReport, run_sta
from .paths import PathStage, PathTracer, TimingPath, report_worst_paths
from .rc import RCNode, RCTree

__all__ = [
    "ClockConstraint",
    "PathStage",
    "PathTracer",
    "RCNode",
    "RCTree",
    "STAEngine",
    "TimingPath",
    "TimingReport",
    "derive_constraints",
    "estimate_depth",
    "report_worst_paths",
    "run_sta",
]
