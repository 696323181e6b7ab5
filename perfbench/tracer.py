"""Spans recorded from outside the program.

A traced run replaces the public functions each layer exposes, *as the
calling module sees them* (a name in a module's namespace, a method on
a class or on one instance), with wrappers that record spans, and puts
the originals back afterwards.  The program's files are never edited.

Spans nest per thread: a span's *self* time is its duration minus the
time covered by the spans it encloses, so a layer table of self times
adds up to the wall time of the enclosing operation, and whatever no
wrapped layer covers is reported as ``unattributed``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

_MISSING = object()


class Tracer:
    """Per-name span aggregates: ``name -> [calls, total_s, child_s]``.

    Self time is ``total_s - child_s``.  Spans are aggregated as they
    end, so per-call layers (an estimator method called 50,000 times in
    a build) cost a few microseconds each and no memory.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> float:
        self._stack().append(0.0)
        return time.perf_counter()

    def end(self, name: str, start: float) -> None:
        stop = time.perf_counter()
        elapsed = stop - start
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += child

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around the caller's code."""
        return _Span(self, name)

    # -- read side -----------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def self_time(self, name: str) -> float:
        entry = self.totals.get(name)
        return float(entry[1] - entry[2]) if entry else 0.0


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.start = self.tracer.begin()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.name, self.start)


class _TracedContext:
    """Wraps a context manager so its ``with`` body is one span."""

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = self.tracer.begin()
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.end(self.name, self.start)


class Patches:
    """Installs span wrappers and restores the originals exactly.

    ``owner`` is a module, a class or an instance.  An attribute the
    owner inherited (a method defined on a base class, a method looked
    up through an instance's class) is shadowed on install and deleted
    on restore, so after :meth:`restore` every namespace touched holds
    the very objects it held before.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def hook(self, owner: object, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(current)``; restorable."""
        own = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        if isinstance(own, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {attr!r}")
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(current))

    def wrap(self, owner: object, attr: str, name: str,
             name_of: Optional[Callable[..., str]] = None) -> None:
        """Record a span named ``name`` (or ``name_of(*args)``) around
        every call of ``owner.attr``."""
        tracer = self.tracer

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                label = name_of(*args, **kwargs) if name_of else name
                start = tracer.begin()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(label, start)
            traced.__wrapped__ = original
            return traced

        self.hook(owner, attr, make)

    def wrap_context(self, owner: object, attr: str, name: str) -> None:
        """``owner.attr`` returns a context manager; its body is a span."""
        tracer = self.tracer

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                return _TracedContext(original(*args, **kwargs), tracer,
                                      name)
            traced.__wrapped__ = original
            return traced

        self.hook(owner, attr, make)

    def wrap_constructor(self, owner: object, attr: str, name: str,
                         methods: Iterable[str] = ()) -> None:
        """Wrap a class as its caller sees it: construction is a span,
        and the listed methods of each instance it makes are wrapped
        on that instance only (other users of the class are untouched).
        """
        tracer = self.tracer
        patches = self
        method_names = tuple(methods)

        def make(cls: Callable) -> Callable:
            def traced(*args, **kwargs):
                start = tracer.begin()
                try:
                    instance = cls(*args, **kwargs)
                finally:
                    tracer.end(name, start)
                for method in method_names:
                    patches.wrap(instance, method, name)
                return instance
            traced.__wrapped__ = cls
            return traced

        self.hook(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ----------------------------------------------------------------------
# Layer tables
# ----------------------------------------------------------------------
def layer_rows(tracer: Tracer, layers: Mapping[str, Iterable[str]]
               ) -> Dict[str, Tuple[int, float]]:
    """``row -> (calls, self seconds)`` summed over each row's spans."""
    rows = {}
    for row, names in layers.items():
        names = list(names)
        rows[row] = (sum(tracer.calls(n) for n in names),
                     sum(tracer.self_time(n) for n in names))
    return rows


def unattributed(wall_s: float, row_seconds: Iterable[float]) -> float:
    """Wall time no layer row accounts for."""
    return wall_s - sum(row_seconds)


def format_table(title: str, wall_s: float,
                 rows: Mapping[str, Tuple[int, float]],
                 rest_name: str) -> str:
    """Aligned layer table whose last rows are unattributed and wall."""
    rest = unattributed(wall_s, (s for _, s in rows.values()))
    lines = [title, f"  {'layer':<30} {'calls':>8} {'self s':>10} "
                    f"{'share':>7}"]
    for name, (calls, seconds) in list(rows.items()) + [
            (rest_name, (0, rest)), ("wall", (0, wall_s))]:
        share = 100.0 * seconds / wall_s if wall_s > 0 else 0.0
        shown = str(calls) if calls else "-"
        lines.append(f"  {name:<30} {shown:>8} {seconds:>10.4f} "
                     f"{share:>6.1f}%")
    return "\n".join(lines)
