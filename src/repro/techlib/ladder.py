"""Parameterized chains of synthetic technology nodes.

The paper transfers between exactly two nodes; :class:`NodeLadder`
generalizes the library layer into a node *generator*: an ordered chain
of K nodes (e.g. 130 -> 45 -> 28 -> 14 -> 7 nm), each with its own
delay/cap/area scales.  The 130nm and 7nm endpoints are the real anchor
libraries (bit-identical to :func:`~repro.techlib.make_sky130_library`
and :func:`~repro.techlib.make_asap7_library`, so a ``[130, 7]`` ladder
degrades exactly to the paper's two-node setting); every other size is
synthesized by log-space interpolation
(:func:`~repro.techlib.make_interpolated_node`), optionally with a
deterministically perturbed gate mix so intermediate nodes differ
structurally, not just electrically.

A ladder is fully described by its :attr:`~NodeLadder.spec` — a small
JSON/pickle-friendly dict — so flow worker processes can rebuild the
exact same libraries from the spec instead of shipping them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .asap7 import make_asap7_library
from .library import TechLibrary, library_digest, merged_cell_vocabulary
from .scaling import make_interpolated_node, nm_text
from .sky130 import make_sky130_library

__all__ = ["ANCHOR_NMS", "DEFAULT_LADDER_NMS", "NodeLadder",
           "label_to_nm", "node_label"]

#: The sizes at which the *real* anchor libraries are used verbatim.
_ANCHOR_BUILDERS = {130.0: make_sky130_library, 7.0: make_asap7_library}

#: The paper's two nodes: ``NodeLadder(ANCHOR_NMS)`` is the one source
#: of the two-node libraries and designs.
ANCHOR_NMS = tuple(_ANCHOR_BUILDERS)

#: Functions an interpolated node always keeps under gate-mix
#: perturbation: the mapper's rewrite base (it cannot terminate without
#: them) plus BUF, which the flow inserts for fanout repair.
_PROTECTED_FUNCTIONS = frozenset(
    {"INV", "BUF", "NAND2", "NOR2", "DFF"})

#: A reasonable 5-node study chain (the DESIGN.md §15 example).
DEFAULT_LADDER_NMS = (130.0, 45.0, 28.0, 14.0, 7.0)


def node_label(node_nm: float) -> str:
    """The node string designs/trainers key on: ``45.0 -> "45nm"``.

    Anchors keep the labels the whole two-node pipeline already uses
    (``"130nm"`` / ``"7nm"``); fractional sizes stay collision-free
    (``45.2 -> "45p2nm"``).
    """
    return f"{nm_text(node_nm)}nm"


def label_to_nm(label: str) -> float:
    """Inverse of :func:`node_label` (``"45p2nm" -> 45.2``)."""
    text = label[:-2] if label.endswith("nm") else label
    try:
        return float(text.replace("p", ".").replace("m", "-"))
    except ValueError:
        raise ValueError(f"not a node label: {label!r}") from None


class NodeLadder:
    """An ordered chain of technology nodes, largest to smallest.

    Parameters
    ----------
    node_nms:
        Feature sizes in nm, at least two, all distinct, each within
        ``[7, 130]``.  Sorted descending: source nodes first, the
        smallest node — the conventional transfer target — last.
    perturb_gate_mix:
        When True, each *interpolated* node drops a seeded subset of
        its non-essential logic functions, so intermediate nodes have
        genuinely different gate mixes (the anchors are never touched).
    seed:
        Seed of the gate-mix perturbation; the drop pattern is a pure
        function of ``(seed, node_nm)``.
    """

    def __init__(self, node_nms: Sequence[float] = DEFAULT_LADDER_NMS,
                 perturb_gate_mix: bool = False, seed: int = 0) -> None:
        nms = sorted((float(nm) for nm in node_nms), reverse=True)
        if len(nms) < 2:
            raise ValueError("a ladder needs at least two nodes")
        if len(set(nms)) != len(nms):
            raise ValueError(f"duplicate node sizes in {nms}")
        for nm in nms:
            if nm not in _ANCHOR_BUILDERS and not 7.0 < nm < 130.0:
                raise ValueError(
                    f"node size {nm} nm outside the supported [7, 130] "
                    "range")
        labels = [node_label(nm) for nm in nms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"node labels collide for sizes {nms}")
        self.node_nms: List[float] = nms
        self.perturb_gate_mix = bool(perturb_gate_mix)
        self.seed = int(seed)
        self._libraries: Optional[Dict[str, TechLibrary]] = None

    # -- identity ------------------------------------------------------
    @property
    def spec(self) -> Dict[str, object]:
        """Serializable description; rebuild with :meth:`from_spec`."""
        return {"node_nms": list(self.node_nms),
                "perturb_gate_mix": self.perturb_gate_mix,
                "seed": self.seed}

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "NodeLadder":
        return cls(node_nms=spec["node_nms"],
                   perturb_gate_mix=bool(spec["perturb_gate_mix"]),
                   seed=int(spec["seed"]))

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeLadder) and self.spec == other.spec

    def __repr__(self) -> str:
        sizes = "->".join(nm_text(nm) for nm in self.node_nms)
        return f"NodeLadder({sizes}nm)"

    # -- structure -----------------------------------------------------
    @property
    def node_labels(self) -> List[str]:
        """Node strings in ladder order (sources first, target last)."""
        return [node_label(nm) for nm in self.node_nms]

    @property
    def target_label(self) -> str:
        """The smallest node — the conventional transfer target."""
        return node_label(self.node_nms[-1])

    @property
    def source_labels(self) -> List[str]:
        return self.node_labels[:-1]

    # -- libraries -----------------------------------------------------
    def _build_one(self, nm: float) -> TechLibrary:
        anchor = _ANCHOR_BUILDERS.get(nm)
        if anchor is not None:
            return anchor()
        library = make_interpolated_node(nm)
        if self.perturb_gate_mix:
            library = self._perturb(library, nm)
        return library

    def _perturb(self, library: TechLibrary, nm: float) -> TechLibrary:
        """Drop a seeded subset of the node's optional functions."""
        optional = sorted(set(library.functions) - _PROTECTED_FUNCTIONS)
        rng = np.random.default_rng(
            [self.seed, int(round(nm * 1000))])
        keep_mask = rng.random(len(optional)) >= 0.4
        dropped = {f for f, keep in zip(optional, keep_mask) if not keep}
        cells = [c for c in library.cells.values()
                 if c.function not in dropped]
        return TechLibrary(
            name=library.name, node_nm=library.node_nm, cells=cells,
            wire=library.wire, site=library.site,
            default_clock_period=library.default_clock_period,
            primary_input_slew=library.primary_input_slew,
        )

    def libraries(self) -> Dict[str, TechLibrary]:
        """Node label -> library, in ladder order (built once, cached)."""
        if self._libraries is None:
            self._libraries = {node_label(nm): self._build_one(nm)
                               for nm in self.node_nms}
        return self._libraries

    def vocabulary(self) -> List[str]:
        """Merged cell-name vocabulary across every node of the chain."""
        return merged_cell_vocabulary(self.libraries().values())

    def digests(self) -> Dict[str, str]:
        """Node label -> content digest of that node's library."""
        return {label: library_digest(lib)
                for label, lib in self.libraries().items()}

    def describe(self) -> List[Dict[str, object]]:
        """Per-node manifest records: label, nm, cell count, digest."""
        return [
            {"label": label, "nm": float(nm),
             "num_cells": len(lib), "digest": library_digest(lib)}
            for (label, lib), nm in zip(self.libraries().items(),
                                        self.node_nms)
        ]
