"""Small cross-cutting utilities (timing, concurrency, BLAS and kernel
threads)."""

from .blas import blas_threads, set_blas_threads
from .concurrency import RWLock
from .threads import kernel_workers, one_blas_thread, training_step
from .timing import (
    format_timing_table,
    get_timings,
    merge_timings,
    reset_timings,
    timed,
    timing_report,
)

__all__ = [
    "RWLock",
    "blas_threads",
    "format_timing_table",
    "get_timings",
    "kernel_workers",
    "merge_timings",
    "one_blas_thread",
    "reset_timings",
    "set_blas_threads",
    "timed",
    "timing_report",
    "training_step",
]
