"""Lightweight wall-clock instrumentation with a process-global registry.

``timed`` is both a context manager and a decorator::

    with timed("gnn.sweep"):
        ...

    @timed("flow.run")
    def run(...):
        ...

Every enter/exit pair adds one call and its elapsed seconds to the named
accumulator.  The registry is a plain module-level dict shared by every
thread of the process; ``timing_report()`` renders it as a table sorted
by total time so perf work can see where steps spend their time, and
``reset_timings()`` clears it between measurements.

Training and the flow record from one thread, but ``repro serve`` does
not: its handler threads (window 0) or its coalescer thread run the
engine's ``timed`` blocks.  Updates take no lock.  Each is a few dict
operations that CPython does not interleave between threads in
practice, but the language does not promise that, so serve-side totals
are not guaranteed exact.

A single ``timed`` instance keeps its start times on a stack, so one
shared instance (e.g. a module-level decorator applied to a recursive
function, or a context manager re-entered from within itself) measures
every nesting level correctly instead of overwriting the outer start.

Worker processes have their own registry; they snapshot it with
:func:`get_timings` and ship it back to the parent, which folds it in
with :func:`merge_timings` (see ``repro.flow.cache.build_designs``).

The overhead per timed block is two ``perf_counter`` calls and a dict
update (~1 microsecond), so instrumenting once-per-step phases is free;
avoid wrapping per-element inner loops.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Mapping

#: name -> {"calls": int, "seconds": float}
_REGISTRY: Dict[str, Dict[str, float]] = {}


class timed:
    """Accumulate wall-clock time under ``name`` (context manager/decorator)."""

    __slots__ = ("name", "_starts")

    def __init__(self, name: str) -> None:
        self.name = name
        # Stack, not a scalar: the same instance may be entered again
        # before it exits (recursion through a decorated function,
        # nested ``with`` on a shared instance).
        self._starts: List[float] = []

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "timed":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        record(self.name, time.perf_counter() - self._starts.pop())

    # -- decorator ------------------------------------------------------
    def __call__(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record(self.name, time.perf_counter() - start)

        return wrapper


def record(name: str, seconds: float) -> None:
    """Add one observation to the named accumulator."""
    entry = _REGISTRY.get(name)
    if entry is None:
        entry = _REGISTRY[name] = {"calls": 0, "seconds": 0.0}
    entry["calls"] += 1
    entry["seconds"] += seconds


def get_timings() -> Dict[str, Dict[str, float]]:
    """Snapshot of the registry: ``{name: {"calls", "seconds"}}``.

    The snapshot is detached, so callers may keep it across a
    :func:`reset_timings`.
    """
    return {name: dict(entry) for name, entry in _REGISTRY.items()}


def merge_timings(timings: Mapping[str, Mapping[str, float]]) -> None:
    """Fold another registry snapshot into this process's registry.

    Used by the parent process to absorb the per-phase accumulators
    worker processes report back, so subprocess work shows up in the
    same ``timing_report()`` as in-process work.
    """
    for name, entry in timings.items():
        acc = _REGISTRY.get(name)
        if acc is None:
            acc = _REGISTRY[name] = {"calls": 0, "seconds": 0.0}
        acc["calls"] += int(entry.get("calls", 0))
        acc["seconds"] += float(entry.get("seconds", 0.0))


def reset_timings() -> None:
    """Clear every accumulator (start of a measurement window)."""
    _REGISTRY.clear()


def format_timing_table(timings: Mapping[str, Mapping[str, float]]) -> str:
    """Render any registry snapshot as an aligned table (total-sorted)."""
    if not timings:
        return "(no timings recorded)"
    rows = sorted(timings.items(), key=lambda kv: -kv[1]["seconds"])
    width = max(len(name) for name, _ in rows)
    lines = [f"{'phase':<{width}}  {'calls':>7}  {'total s':>9}  "
             f"{'mean ms':>9}"]
    for name, entry in rows:
        calls = int(entry["calls"])
        total = entry["seconds"]
        mean_ms = 1e3 * total / max(calls, 1)
        lines.append(f"{name:<{width}}  {calls:>7d}  {total:>9.3f}  "
                     f"{mean_ms:>9.3f}")
    return "\n".join(lines)


def timing_report() -> str:
    """Render this process's registry as an aligned table."""
    return format_timing_table(_REGISTRY)
