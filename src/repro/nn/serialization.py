"""Crash-safe artifact writes and the one checkpoint restore path.

Every artifact a kill could tear — design caches, training and serving
checkpoints, a run's ``manifest.json``/``summary.json`` and rewritten
``steps.jsonl`` — is written by :func:`atomic_write`: staged next to
the target, ``os.replace``-renamed over it, and the stage file removed
on any failure, so neither a truncated artifact nor a stage file is
left behind.  :func:`atomic_savez` also pins the final name:
``np.savez_compressed`` silently appends ``.npz`` to a target without
it.

Every checkpoint load stages its archive with :func:`read_archive`
(every entry read, ``meta`` required and parsed, ``format_version``
checked against the versions the caller reads) and passes each tensor
set it will write through :func:`check_tensor_set` (every name and
shape) before the first write.  Each failure is a
:class:`CheckpointError` naming the file and the key.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Mapping, Optional, Sequence,
                    Union)

import numpy as np

__all__ = ["Archive", "CheckpointError", "atomic_savez", "atomic_write",
           "check_tensor_set", "read_archive"]


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied; the message
    names the file and, for an entry, the key."""


def atomic_write(path: Union[str, Path], write: Callable[[Path], Any],
                 suffix: str = "") -> Path:
    """Write the file at *exactly* ``path`` by calling ``write`` on a
    stage path (same directory, pid-unique, ending in ``suffix``) and
    renaming it into place.  On any failure the stage file is removed
    and an existing target is left untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp{suffix}")
    try:
        write(tmp)
        os.replace(tmp, path)
    # repro-check: disable=bare-except -- cleanup-and-reraise: the stage file must go even on KeyboardInterrupt
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_savez(path: Union[str, Path],
                 arrays: Mapping[str, np.ndarray]) -> Path:
    """Write ``arrays`` as a compressed ``.npz`` at exactly ``path``."""
    # The stage name ends in .npz so numpy does not append a second one.
    return atomic_write(
        path, lambda tmp: np.savez_compressed(str(tmp), **arrays),
        suffix=".npz")


@dataclass
class Archive:
    """A staged checkpoint: every entry in memory, ``meta`` parsed."""

    #: ``"<kind> <path>"``; every error message starts with it.
    source: str
    entries: Dict[str, np.ndarray]
    meta: Dict[str, Any]

    def error(self, message: str) -> CheckpointError:
        return CheckpointError(f"{self.source} {message}")

    def require(self, key: str) -> np.ndarray:
        if key not in self.entries:
            raise self.error(f"missing key {key!r}")
        return self.entries[key]

    def meta_field(self, key: str, *fields: str) -> Any:
        """``meta[key]``; given ``fields``, it must be a JSON object
        holding each of them."""
        if key not in self.meta:
            raise self.error(f"missing key 'meta.{key}'")
        value = self.meta[key]
        if fields and not isinstance(value, dict):
            raise self.error(f"key 'meta.{key}' is not a JSON object")
        for name in fields:
            if name not in value:
                raise self.error(f"missing key 'meta.{key}.{name}'")
        return value

    def section(self, prefix: str) -> Dict[str, np.ndarray]:
        """Every entry under ``prefix``, keyed by the rest of its name."""
        return {key[len(prefix):]: value
                for key, value in self.entries.items()
                if key.startswith(prefix)}


def read_archive(path: Union[str, Path], kind: str,
                 versions: Sequence[int]) -> Archive:
    """Stage every entry of the ``.npz`` at ``path``; its ``meta`` must
    be a JSON object whose ``format_version`` is one of ``versions``."""
    try:
        with np.load(str(path), allow_pickle=False) as archive:
            entries = {key: archive[key] for key in archive.files}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable {kind} {path}: {exc}") from exc
    staged = Archive(f"{kind} {path}", entries, {})
    try:
        staged.meta = json.loads(str(staged.require("meta")))
    except json.JSONDecodeError as exc:
        raise staged.error(f"has corrupt 'meta' JSON: {exc}") from exc
    if not isinstance(staged.meta, dict):
        raise staged.error("key 'meta' is not a JSON object")
    found = staged.meta.get("format_version")
    if found not in versions:
        readable = " or ".join(str(v) for v in versions)
        raise staged.error(f"key 'meta.format_version' is {found!r}; "
                           f"this build reads format version {readable}")
    return staged


def check_tensor_set(expected: Mapping[str, Any],
                     given: Mapping[str, Any], prefix: str = "",
                     source: Optional[str] = None) -> None:
    """Refuse ``given`` unless it has exactly ``expected``'s names, each
    at the expected entry's shape.

    All names and shapes are checked before this returns, so a caller
    that writes afterwards writes all of ``given`` or nothing.  The
    message names the first offending entry as ``prefix + name``.  A
    name mismatch is a ``KeyError`` and a shape mismatch a
    ``ValueError`` — or, given an :attr:`Archive.source`, a
    :class:`CheckpointError` naming it.
    """
    def fail(kind: type, message: str) -> None:
        raise kind(message) if source is None \
            else CheckpointError(f"{source} {message}")

    missing = sorted(set(expected) - set(given))
    unexpected = sorted(set(given) - set(expected))
    if missing or unexpected:
        what, names = ("missing", missing) if missing \
            else ("unexpected", unexpected)
        fail(KeyError, f"{what} key {prefix + names[0]!r} "
                       f"({len(missing)} missing, {len(unexpected)} "
                       "unexpected)")
    for name in sorted(given):
        want, got = tuple(expected[name].shape), np.shape(given[name])
        if got != want:
            fail(ValueError, f"key {prefix + name!r} has shape {got}, "
                             f"expected {want}")
