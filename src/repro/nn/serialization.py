"""Crash-safe ``.npz`` writes and the checkpoint error type.

Every archive writer (design caches, the trainer's resume checkpoints
and the serving checkpoints of :mod:`repro.infer.serialization`) goes
through :func:`atomic_savez`, which stages the archive in a temporary
file and ``os.replace``-renames it over the target.  A crash (or a
full disk, or a SIGKILL) mid-save therefore never leaves a truncated
archive at the destination path — the old file, if any, survives
intact.  The rename also pins the final name exactly:
``np.savez_compressed`` silently appends ``.npz`` when the target lacks
the suffix, so saving to ``model`` used to produce ``model.npz`` and
break any caller that later opened ``model``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Union

import numpy as np

__all__ = ["CheckpointError", "atomic_savez"]


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied.

    Raised with a message naming the offending file and — for
    missing/mismatched archive entries — the offending key, so a
    corrupt or incompatible checkpoint fails with a diagnosis instead
    of a half-mutated model.
    """


def atomic_savez(path: Union[str, Path],
                 arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``arrays`` as a compressed ``.npz`` at *exactly* ``path``.

    The archive is staged next to the target (same filesystem, so the
    rename is atomic) and moved into place with ``os.replace``.  On any
    failure the temporary file is removed and the pre-existing target
    is left untouched.  Returns the final path.
    """
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    # The stage name ends in .npz so numpy does not append a second
    # suffix; the pid keeps concurrent writers from clobbering each
    # other's stage file.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez_compressed(str(tmp), **arrays)
        os.replace(tmp, path)
    # repro-check: disable=bare-except -- cleanup-and-reraise: the stage file must go even on KeyboardInterrupt
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
