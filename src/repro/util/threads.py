"""The threads of a training step: one BLAS thread, and a kernel pool.

A training step (:func:`training_step`) runs every BLAS call on the
thread that makes it, and splits the CNN kernels (``conv2d`` and
``max_pool2d``, forward and backward) over a small pool of threads, one
per CPU this process may run on (:func:`kernel_workers`).  Two reasons,
both in DESIGN.md §11 and §28:

- **Bits.**  How OpenBLAS splits a GEMM over its threads changes how
  some products round, so a step at the host's default count gave
  other loss and weight digests on a 2-core host than on a 4-core one.
  At one thread they no longer depend on the core count.
- **Cores.**  Between calls, an idle OpenBLAS worker busy-waits: it
  held the second core of a 2-core host for the whole fit while the
  CNN, most of a step, ran on one.  With one BLAS thread the worker
  sleeps and the kernels' second part takes its core.

A split kernel partitions its own sample rows into contiguous parts;
each part writes disjoint rows of the shared output with its own
scratch, so the result is bit-identical to the serial kernel at any
worker count.  Outside a step (serving, ``repro predict``, validation)
:func:`step_workers` is 1 and every kernel runs serially on its caller.

The step flag is thread-local, like :func:`repro.nn.no_grad`.  The BLAS
count is process-wide (:func:`one_blas_thread`): it is set when the
first step, or fit, of any thread begins and restored when the last
one ends.  A fit holds it for its validations and its node population
too, so those bits do not depend on the core count either, and the
worker never wakes to spin between steps.  The pool is created on
first use, reused across steps, and dropped in a forked child (whose
copy would have no threads behind it).
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .blas import blas_threads, set_blas_threads

__all__ = ["kernel_workers", "one_blas_thread", "run_parts",
           "step_workers", "training_step"]

#: At most this many threads run a split kernel: each part must stay
#: large enough to amortise its Python overhead, and only 2-CPU hosts
#: were measured (DESIGN.md §28).
MAX_KERNEL_WORKERS = 4

T = TypeVar("T")

_local = threading.local()
_lock = threading.Lock()
_pool = None
#: :func:`one_blas_thread` blocks open in the process (any thread),
#: and the BLAS count in force before the first of them.
_active = 0
_saved: Optional[int] = None


def kernel_workers() -> int:
    """Threads a split kernel runs on: the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # not Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_KERNEL_WORKERS))


def step_workers() -> int:
    """Parts a kernel splits into: :func:`kernel_workers` inside a
    training step on this thread, 1 anywhere else."""
    return kernel_workers() if getattr(_local, "depth", 0) else 1


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run every BLAS call of the process on one thread for a block.

    Nests, and may be entered by several threads at once: the count in
    force before the first block is restored when the last one ends,
    also when it raises.  Usable as a decorator.
    """
    global _active, _saved
    with _lock:
        if _active == 0:
            _saved = blas_threads()
            if _saved not in (None, 1):
                set_blas_threads(1)
        _active += 1
    try:
        yield
    finally:
        with _lock:
            _active -= 1
            if _active == 0 and _saved not in (None, 1):
                set_blas_threads(_saved)


@contextlib.contextmanager
def training_step() -> Iterator[None]:
    """Run a training step: one BLAS thread, and on this thread the
    CNN kernels split over :func:`kernel_workers` parts."""
    depth = getattr(_local, "depth", 0)
    with one_blas_thread():
        _local.depth = depth + 1
        try:
            yield
        finally:
            _local.depth = depth


def _executor():
    """The kernel pool, created on first use."""
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=kernel_workers() - 1,
                thread_name_prefix="repro-kernel")
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here."""
    global _pool, _lock
    _pool = None
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def run_parts(work: Callable[[T], None], parts: Sequence[T]) -> None:
    """``work(part)`` for every part: the first on the calling thread,
    the others on the kernel pool.

    Returns once every part has finished.  A part's exception is
    re-raised here, the caller's own first; the other parts still run
    to the end before it propagates, so none writes into a buffer its
    caller has given up.
    """
    if len(parts) == 1:
        work(parts[0])
        return
    pool = _executor()
    futures = [pool.submit(work, part) for part in parts[1:]]
    try:
        work(parts[0])
    finally:
        errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error
