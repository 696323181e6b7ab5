"""Synthetic technology libraries (PDK substitute).

Two anchor nodes mirror the paper's setting:

- :func:`make_sky130_library` — the 130nm source node (abundant data)
- :func:`make_asap7_library` — the 7nm target node (scarce data)

Beyond the paper, :class:`NodeLadder` generates ordered chains of
intermediate nodes between the anchors (via
:func:`make_interpolated_node` / :func:`scale_library`) for K-node
transfer studies.
"""

from .asap7 import make_asap7_library
from .cell import StandardCell, TimingArc, TimingTable
from .ladder import (ANCHOR_NMS, DEFAULT_LADDER_NMS, NodeLadder,
                     label_to_nm, node_label)
from .library import (
    GENERIC_FUNCTIONS,
    TechLibrary,
    WireModel,
    build_cell,
    library_digest,
    merged_cell_vocabulary,
)
from .scaling import make_interpolated_node, scale_library
from .sky130 import make_sky130_library

__all__ = [
    "ANCHOR_NMS",
    "DEFAULT_LADDER_NMS",
    "GENERIC_FUNCTIONS",
    "NodeLadder",
    "StandardCell",
    "TechLibrary",
    "TimingArc",
    "TimingTable",
    "WireModel",
    "build_cell",
    "label_to_nm",
    "library_digest",
    "make_asap7_library",
    "make_interpolated_node",
    "make_sky130_library",
    "node_label",
    "scale_library",
    "merged_cell_vocabulary",
]
