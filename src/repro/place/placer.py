"""Quadratic placement with row legalisation (Innovus stand-in).

The global placer minimises quadratic wirelength: nets are expanded with
the clique model into pairwise springs, fixed port locations anchor the
system, and the resulting sparse linear system is solved once per axis
with scipy.  A grid-based spreading pass then relieves overlap, and a
tetris-style legaliser snaps cells to rows and sites while avoiding macro
blockages.

Cell pin locations are derived from the placed cell origin; downstream
stages (routing, density maps, STA wire models) only consume pin
locations, matching how DEF-based flows work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..netlist import CellInst, Netlist
from .floorplan import Floorplan, assign_port_locations, make_floorplan


class QuadraticPlacer:
    """Analytic global placement + legalisation for one netlist.

    Parameters
    ----------
    netlist:
        Design to place.  Port locations must already be assigned (the
        :func:`place_design` driver handles this).
    floorplan:
        Die geometry.
    seed:
        Used for tie-break jitter so perfectly symmetric designs do not
        collapse onto a line.
    """

    def __init__(self, netlist: Netlist, floorplan: Floorplan,
                 seed: int = 0) -> None:
        self.netlist = netlist
        self.floorplan = floorplan
        self.rng = np.random.default_rng(seed)
        self.cells: List[CellInst] = list(netlist.cells.values())
        self._index: Dict[str, int] = {c.name: i for i, c in
                                       enumerate(self.cells)}

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Place all cells: global solve, spreading, legalisation."""
        if not self.cells:
            return
        x, y = self._solve_quadratic()
        x, y = self._spread(x, y)
        self._legalize(x, y)
        self._update_pin_locations()

    # ------------------------------------------------------------------
    def _solve_quadratic(self) -> Tuple[np.ndarray, np.ndarray]:
        """Minimise clique-model quadratic wirelength with fixed ports."""
        # Imported here, not at module level: a process that only loads
        # cached designs never places, so it never pays for scipy
        # (DESIGN.md §26).
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = len(self.cells)
        lap = sp.lil_matrix((n, n))
        bx = np.zeros(n)
        by = np.zeros(n)
        anchor = 1e-6  # tiny pull to die centre keeps the system SPD

        for net in self.netlist.nets.values():
            pins = [p for p in net.pins if p is not None]
            if len(pins) < 2 or net.is_clock:
                continue
            weight = 1.0 / (len(pins) - 1)
            for i in range(len(pins)):
                for j in range(i + 1, len(pins)):
                    self._add_spring(lap, bx, by, pins[i], pins[j], weight)

        cx, cy = self.floorplan.width / 2, self.floorplan.height / 2
        for i in range(n):
            lap[i, i] += anchor
            bx[i] += anchor * cx
            by[i] += anchor * cy

        lap = lap.tocsr()
        x = spla.spsolve(lap, bx)
        y = spla.spsolve(lap, by)
        jitter = self.floorplan.site_width
        x = x + self.rng.uniform(-jitter, jitter, size=n)
        y = y + self.rng.uniform(-jitter, jitter, size=n)
        return x, y

    def _add_spring(self, lap, bx, by, pin_a, pin_b, weight: float) -> None:
        ia = self._index.get(pin_a.cell.name) if pin_a.cell else None
        ib = self._index.get(pin_b.cell.name) if pin_b.cell else None
        if ia is None and ib is None:
            return
        if ia is not None and ib is not None:
            lap[ia, ia] += weight
            lap[ib, ib] += weight
            lap[ia, ib] -= weight
            lap[ib, ia] -= weight
        elif ia is not None:
            lap[ia, ia] += weight
            bx[ia] += weight * pin_b.x
            by[ia] += weight * pin_b.y
        else:
            lap[ib, ib] += weight
            bx[ib] += weight * pin_a.x
            by[ib] += weight * pin_a.y

    # ------------------------------------------------------------------
    def _spread(self, x: np.ndarray,
                y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Relieve clustering by equalising cell counts across grid bins.

        Quadratic solutions collapse toward the centre; this pass ranks
        cells along each axis and maps ranks back to die coordinates,
        preserving relative order (a cheap form of look-ahead spreading).
        """
        n = len(x)
        if n < 2:
            return x, y
        alpha = 0.8  # how strongly to blend toward the uniform spread
        order_x = np.argsort(x)
        order_y = np.argsort(y)
        spread_x = np.empty(n)
        spread_y = np.empty(n)
        margin = 2 * self.floorplan.site_width
        spread_x[order_x] = np.linspace(margin, self.floorplan.width - margin,
                                        n)
        spread_y[order_y] = np.linspace(margin, self.floorplan.height - margin,
                                        n)
        return ((1 - alpha) * x + alpha * spread_x,
                (1 - alpha) * y + alpha * spread_y)

    # ------------------------------------------------------------------
    def _legalize(self, x: np.ndarray, y: np.ndarray) -> None:
        """Tetris legalisation: rows by y, greedy site packing by x."""
        fp = self.floorplan
        n_rows = fp.num_rows
        # Row capacity in um of usable width, accounting for macros.
        row_used = np.zeros(n_rows)
        row_cells: List[List[int]] = [[] for _ in range(n_rows)]

        target_rows = np.clip((y / fp.row_height).astype(int), 0, n_rows - 1)
        order = np.argsort(x)
        for idx in order:
            cell = self.cells[idx]
            width = max(fp.site_width,
                        cell.ref.area / fp.row_height)
            row = int(target_rows[idx])
            placed = False
            for offset in self._row_probe_order(n_rows):
                r = row + offset
                if not 0 <= r < n_rows:
                    continue
                pos = row_used[r]
                # Skip macro spans.
                row_y = fp.row_y(r)
                guard = 0
                while fp.in_macro(pos + width / 2, row_y) and guard < 100:
                    pos = self._macro_right_edge(pos, row_y)
                    guard += 1
                if pos + width <= fp.width:
                    cell.x = pos + width / 2
                    cell.y = row_y
                    row_used[r] = pos + width
                    row_cells[r].append(idx)
                    placed = True
                    break
            if not placed:
                # Overflow: stack into the least-used row regardless.
                r = int(np.argmin(row_used))
                cell.x = min(row_used[r] + width / 2, fp.width)
                cell.y = fp.row_y(r)
                row_used[r] += width

    @staticmethod
    def _row_probe_order(n_rows: int) -> List[int]:
        """0, +1, -1, +2, -2, ... probe offsets."""
        order = [0]
        for d in range(1, n_rows):
            order.extend((d, -d))
        return order

    def _macro_right_edge(self, pos: float, row_y: float) -> float:
        for macro in self.floorplan.macros:
            if macro.y <= row_y <= macro.y + macro.height \
                    and macro.x <= pos <= macro.x + macro.width:
                return macro.x + macro.width
        return pos + self.floorplan.site_width

    # ------------------------------------------------------------------
    def _update_pin_locations(self) -> None:
        """Pins inherit their cell's placed location (plus a tiny stagger).

        The stagger keeps input pins distinguishable on density maps
        without pretending we model real pin geometry.
        """
        for cell in self.cells:
            for k, pin in enumerate(cell.pins.values()):
                pin.x = cell.x + 0.1 * self.floorplan.site_width * k
                pin.y = cell.y


def place_design(netlist: Netlist, utilization: float = 0.65,
                 n_macros: int = 2, seed: int = 0) -> Floorplan:
    """Full placement driver: floorplan, port ring, global place, legalise.

    Returns the floorplan (pin/cell coordinates are written in place).
    """
    floorplan = make_floorplan(netlist, utilization=utilization,
                               n_macros=n_macros, seed=seed)
    assign_port_locations(netlist, floorplan)
    QuadraticPlacer(netlist, floorplan, seed=seed).run()
    return floorplan


def total_hpwl(netlist: Netlist) -> float:
    """Total half-perimeter wirelength of all placed nets (um)."""
    total = 0.0
    for net in netlist.nets.values():
        pins = net.pins
        if len(pins) < 2:
            continue
        xs = [p.x for p in pins]
        ys = [p.y for p in pins]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total
