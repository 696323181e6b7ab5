"""Read and set the thread count of the OpenBLAS that numpy calls.

``repro serve`` runs every BLAS call on the thread that makes it (see
DESIGN.md §25): between calls an OpenBLAS worker thread busy-waits, so
under steady request traffic it holds a whole core that the handler
and coalescer threads need.  Training steps do the same, through
:mod:`repro.util.threads` (DESIGN.md §28).  The control lives in the
BLAS library itself, which numpy loads privately, so it is reached
through ctypes: ``dlsym`` on numpy's extension module searches the
libraries that module was linked against.

numpy 2.x wheels ship scipy-openblas and export
``scipy_openblas_{get,set}_num_threads64_``; older wheels and system
builds export ``openblas_{get,set}_num_threads`` (``64_``-suffixed for
64-bit-integer builds).  With any other BLAS (MKL, Accelerate) no
symbol is found: both functions return ``None`` and change nothing.

:func:`blas_corename` names the CPU kernel set OpenBLAS picked when it
loaded; run manifests record it, since training digests depend on it
(DESIGN.md §8, §11).
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["blas_corename", "blas_threads", "set_blas_threads"]

#: (get, set) symbol pairs, tried in order.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


#: Names of the function that says which CPU's kernels OpenBLAS runs.
_CORENAME_SYMBOLS = ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename")


def _library() -> Optional[ctypes.CDLL]:
    """numpy's extension module, through which its BLAS is reached."""
    try:
        core = getattr(np, "_core", None) or np.core   # numpy 2.x / 1.x
        return ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


@functools.lru_cache(maxsize=None)
def _controls() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The BLAS's (get, set) thread-count functions, or None."""
    library = _library()
    if library is None:
        return None
    for get_name, set_name in _SYMBOLS:
        try:
            getter = getattr(library, get_name)
            setter = getattr(library, set_name)
        except AttributeError:
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        return getter, setter
    return None


def blas_threads() -> Optional[int]:
    """Threads numpy's OpenBLAS uses per call; None without a control."""
    controls = _controls()
    return None if controls is None else controls[0]()


def set_blas_threads(count: int) -> Optional[int]:
    """Make numpy's OpenBLAS use ``count`` threads per call.

    Returns the count in force afterwards, or None (and changes
    nothing) when no OpenBLAS control was found.  Call it before other
    threads run BLAS: the setting is process-wide.
    """
    controls = _controls()
    if controls is None:
        return None
    controls[1](count)
    return controls[0]()


@functools.lru_cache(maxsize=None)
def blas_corename() -> Optional[str]:
    """The CPU whose kernels numpy's OpenBLAS picked when it loaded
    (``Haswell``, ``SkylakeX``, ...); None without OpenBLAS.

    A build with ``DYNAMIC_ARCH`` picks them per host, and two kernel
    sets may round a product differently.
    """
    library = _library()
    if library is None:
        return None
    for name in _CORENAME_SYMBOLS:
        try:
            getter = getattr(library, name)
        except AttributeError:
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_char_p
        raw = getter()
        return raw.decode("ascii", "replace") if raw else None
    return None
