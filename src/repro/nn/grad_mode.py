"""Thread-local gradient-mode switch for the autograd engine.

Inference never calls ``backward()``, yet every op still pays for it:
:func:`Tensor._make` wires parents into the result and every op
attaches a backward closure, keeping the whole forward graph (and all
its intermediate buffers) alive until the output is garbage collected.
:class:`no_grad` turns that bookkeeping off for a dynamic scope::

    with no_grad():
        preds = model.predict(design)     # plain numpy forward

Inside the block every op produces a detached ``requires_grad=False``
tensor — no parents, no closure, bit-identical forward values (the
numeric kernels are untouched; only graph recording is skipped).

The flag is **thread-local**: a serving thread running forward-only
inference never disables gradient recording for a training thread.
All ops funnel through :meth:`Tensor._make` (via ``apply`` and
``_finish``), so honoring the flag there covers every registry op of
:mod:`repro.nn.ops` — the fused sweep and conv included — and
everything composed from them in ``functional.py`` and ``layers.py``;
any future op built on the same plumbing inherits it.
``repro check`` audits exactly that invariant (see
:func:`repro.check.gradcheck.check_no_grad`).
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["is_grad_enabled", "no_grad", "enable_grad"]

_STATE = threading.local()


def is_grad_enabled() -> bool:
    """True unless the calling thread is inside a :class:`no_grad` block."""
    return getattr(_STATE, "enabled", True)


class _GradMode:
    """Reentrant context manager / decorator pinning the grad flag."""

    __slots__ = ("_target", "_previous")

    def __init__(self, target: bool) -> None:
        self._target = target
        # Stack of saved states: one instance may be nested or shared.
        self._previous = []

    def __enter__(self) -> "_GradMode":
        self._previous.append(is_grad_enabled())
        _STATE.enabled = self._target
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _STATE.enabled = self._previous.pop()

    def __call__(self, func: Callable) -> Callable:
        import functools

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with type(self)(self._target):
                return func(*args, **kwargs)

        return wrapper


def no_grad() -> _GradMode:
    """Disable gradient recording for a ``with`` block (or decorator)."""
    return _GradMode(False)


def enable_grad() -> _GradMode:
    """Re-enable gradient recording inside a :func:`no_grad` scope."""
    return _GradMode(True)
