"""Op-tape recording hooks for the trace/compile layer.

The compile layer (:mod:`repro.nn.compile`) runs one eager step with
tracing enabled, records every op the autograd engine constructs, and
compiles the recorded tape into a flat replay schedule.  This module is
the *hook* half of that contract: it owns the (cheap) global "is a
trace active" flag the engine checks on every op, and the thread-local
tape the ops append to.

It is deliberately tiny and import-free (only stdlib + typing) so that
``tensor.py`` can import it without cycles: ``tensor._finish`` checks
``_tracing.ACTIVE`` — a module-global read, ~30ns — and only touches
the thread-local state when a trace is actually running, so the eager
hot path pays nothing when compilation is off.

Every emitted entry keeps **strong references** to the output tensor
and its parents.  This is what makes ``id()``-keyed lookups at compile
time sound: no tensor participating in the traced step can be garbage
collected (and its id reused) while the tape is alive.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Tape", "TapeEntry", "ACTIVE", "emit", "current_tape",
           "push_tape", "pop_tape"]

#: Module-global fast-path flag: True iff *some* thread has a tape
#: open.  Ops check this before touching thread-local state.
ACTIVE = False

_STATE = threading.local()


class TapeEntry:
    """One recorded op: output, inputs, and the attrs its op needs."""

    __slots__ = ("op", "out", "parents", "attrs")

    def __init__(self, op: Optional[str], out: Any,
                 parents: Tuple[Any, ...],
                 attrs: Optional[Dict[str, Any]]) -> None:
        self.op = op
        self.out = out
        self.parents = parents
        self.attrs = attrs or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TapeEntry(op={self.op!r}, out={self.out!r})"


class Tape:
    """The recorded op sequence of one traced step."""

    def __init__(self) -> None:
        self.entries: List[TapeEntry] = []
        #: name -> leaf Tensor wrapping a per-step input array.
        self.inputs: Dict[str, Any] = {}
        #: id(array) -> name for dynamic integer index arrays that
        #: appear inside op attrs (e.g. gather_rows' row index).  The
        #: arrays themselves are kept alive in ``input_arrays``.
        self.index_names: Dict[int, str] = {}
        self.input_arrays: Dict[str, Any] = {}


def current_tape() -> Optional[Tape]:
    """The tape open on *this* thread, if any."""
    return getattr(_STATE, "tape", None)


def push_tape(tape: Tape) -> None:
    global ACTIVE
    if current_tape() is not None:
        raise RuntimeError("a trace is already active on this thread")
    _STATE.tape = tape
    ACTIVE = True


def pop_tape() -> Tape:
    global ACTIVE
    tape = current_tape()
    if tape is None:
        raise RuntimeError("no trace is active on this thread")
    _STATE.tape = None
    ACTIVE = False
    return tape


def emit(op: Optional[str], out: Any, parents: Tuple[Any, ...],
         attrs: Optional[Dict[str, Any]]) -> None:
    """Record one op on the active tape (no-op for other threads)."""
    tape = current_tape()
    if tape is not None:
        tape.entries.append(TapeEntry(op, out, parents, attrs))
