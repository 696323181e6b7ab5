"""Per-design flow artifact cache + parallel dataset construction.

The synthetic PnR flow is deterministic in ``(design, node, scale,
resolution, seed)`` but not free (up to seconds per design), and every
experiment/benchmark/test session rebuilds the same designs.  This
module caches each design's :class:`~repro.flow.dataset.DesignData`
as one ``.npz`` under a content key, and fans cold builds out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Cache keys include a **code-version salt** (:data:`CODE_SALT`): bump it
whenever a flow change alters the produced arrays, and every stale
entry misses instead of silently serving old data.  Corrupt or
unreadable entries are discarded and rebuilt — the cache can always be
deleted wholesale (``rm -rf ~/.cache/repro-dac24``) without losing
anything but time.
"""

from __future__ import annotations

import hashlib
import os
import time
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..features import GateVocabulary
from ..techlib import ANCHOR_NMS, NodeLadder, TechLibrary, library_digest
from ..util import get_timings, merge_timings, reset_timings
from .dataset import DesignData, load_design_data, save_design_data

__all__ = ["CODE_SALT", "FlowBuildError", "FlowCache", "build_designs",
           "default_cache_dir", "library_set_digest"]

#: Bump when flow semantics change (new features, new seeding, ...) so
#: previously cached designs are rebuilt rather than reused.
CODE_SALT = "flow-v3"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dac24``."""
    root = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-dac24"),
    )
    return Path(root)


class FlowCache:
    """Content-keyed store of flow outputs, one ``.npz`` per design.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``default_cache_dir()/designs``.
        Created lazily on first store.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None \
            else default_cache_dir() / "designs"

    # ------------------------------------------------------------------
    def key(self, name: str, node: str, scale: float, resolution: int,
            seed: int, lib_digest: Optional[str] = None) -> str:
        """Filename-safe cache key; any parameter change changes it.

        Numeric parameters are canonicalised (``1`` and ``1.0`` produce
        the same key, as do numpy scalars), so numerically equal
        parameters can never miss an existing entry just because of
        their Python type's ``repr``.

        ``lib_digest`` is the content digest of the *library set* the
        flow ran against (:func:`library_set_digest`).  The node string
        alone is just a label — two same-named but differently-scaled
        libraries must key apart, and the gate one-hot depends on the
        merged vocabulary of every library in the set.
        """
        lib = f"_lib{lib_digest}" if lib_digest is not None else ""
        return (f"{name}@{node}_s{format(float(scale), '.6g')}"
                f"_r{int(resolution)}_seed{int(seed)}{lib}_{CODE_SALT}")

    def path(self, name: str, node: str, scale: float, resolution: int,
             seed: int, lib_digest: Optional[str] = None) -> Path:
        key = self.key(name, node, scale, resolution, seed, lib_digest)
        return self.root / f"{key}.npz"

    # ------------------------------------------------------------------
    def load(self, name: str, node: str, scale: float, resolution: int,
             seed: int, lib_digest: Optional[str] = None
             ) -> Optional[DesignData]:
        """The cached design, or None on miss.

        A corrupt/truncated/stale-format entry counts as a miss: it is
        deleted so the subsequent store replaces it.
        """
        path = self.path(name, node, scale, resolution, seed, lib_digest)
        if not path.is_file():
            return None
        try:
            return load_design_data(path)
        except (OSError, KeyError, ValueError, zipfile.BadZipFile):
            path.unlink(missing_ok=True)
            return None

    def store(self, design: DesignData, scale: float, resolution: int,
              seed: int, lib_digest: Optional[str] = None) -> Path:
        """Persist one design (atomic: save_design_data stages+renames)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(design.name, design.node, scale, resolution,
                         seed, lib_digest)
        save_design_data(design, path)
        return path


# ----------------------------------------------------------------------
# Parallel cold builds
# ----------------------------------------------------------------------
#: Sleep hook for retry backoff; module-level so tests can stub it out
#: instead of actually sleeping.
_sleep: Callable[[float], None] = time.sleep


class FlowBuildError(RuntimeError):
    """One or more designs failed to build, even after every retry.

    ``failures`` is a list of ``(name, node, exception)`` triples, one
    per design that could not be built, so callers (and tracebacks) see
    exactly which designs broke instead of an anonymous pool error.
    """

    def __init__(self, failures) -> None:
        self.failures = list(failures)
        detail = "; ".join(f"{name}@{node}: {exc!r}"
                           for name, node, exc in self.failures)
        super().__init__(
            f"flow build failed for {len(self.failures)} design(s): "
            f"{detail}"
        )


def library_set_digest(libraries: Dict[str, TechLibrary]) -> str:
    """Content digest of a whole node-label -> library mapping.

    Order-independent over labels; covers each library's full
    electrical content via :func:`~repro.techlib.library_digest`.
    """
    h = hashlib.blake2b(digest_size=8)
    for label in sorted(libraries):
        h.update(label.encode("utf-8"))
        h.update(b"\x00")
        h.update(library_digest(libraries[label]).encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


def _flow_worker(task: Tuple[str, str, float, int, int, Dict[str, object]]
                 ) -> Tuple[DesignData, Dict[str, Dict[str, float]]]:
    """Run one design through the flow (executes in a worker process).

    Builds its own libraries/vocabulary from the task's ladder spec.
    Both are deterministic, so every worker featurises against the
    same vocabulary as the parent.  Returns the design together with
    this task's timing registry — pool processes are reused across
    tasks, so the registry is reset on entry to scope the snapshot to
    exactly this build.
    """
    reset_timings()
    name, node, scale, resolution, seed, ladder_spec = task
    from .pnr import PnRFlow

    libraries = NodeLadder.from_spec(ladder_spec).libraries()
    flow = PnRFlow(libraries, vocab=GateVocabulary(list(libraries.values())),
                   resolution=resolution, scale=scale, seed=seed)
    return flow.run(name, node), get_timings()


def _run_parallel(tasks: Dict[int, Tuple[str, str, float, int, int,
                                         Dict[str, object]]],
                  workers: int
                  ) -> Tuple[Dict[int, Tuple[DesignData,
                                             Dict[str, Dict[str, float]]]],
                             Dict[int, BaseException]]:
    """Fan tasks out over a process pool, capturing failures per task.

    Returns ``(done, failed)`` keyed by the caller's task index.  A
    failure in one task never aborts the others; even a broken pool
    (worker killed mid-build) surfaces as per-task exceptions the
    caller can retry serially.
    """
    from concurrent.futures import ProcessPoolExecutor

    done: Dict[int, Tuple[DesignData, Dict[str, Dict[str, float]]]] = {}
    failed: Dict[int, BaseException] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(_flow_worker, task)
                   for i, task in tasks.items()}
        for i, future in futures.items():
            exc = future.exception()
            if exc is not None:
                failed[i] = exc
            else:
                done[i] = future.result()
    return done, failed


def build_designs(names: Sequence[Tuple[str, str]],
                  scale: float = 1.0, resolution: int = 32, seed: int = 0,
                  workers: int = 1, use_cache: bool = True,
                  cache_dir: Union[str, Path, None] = None,
                  ladder: Optional[NodeLadder] = None,
                  retries: int = 2, retry_backoff: float = 0.5
                  ) -> List[DesignData]:
    """Build ``(name, node)`` designs, cached and optionally in parallel.

    Parameters
    ----------
    names:
        ``(design_name, node)`` pairs, returned in the same order.
    workers:
        Process count for cache misses; ``<= 1`` builds serially in
        this process (no executor overhead).
    use_cache:
        When False neither reads nor writes the cache.
    cache_dir:
        Cache root override (default ``$REPRO_CACHE_DIR`` handling).
    ladder:
        The :class:`~repro.techlib.NodeLadder` whose libraries the
        flow runs against; default the paper's two anchor nodes.  The
        ladder's small serializable spec — not the libraries — is
        shipped to worker processes, which rebuild identical libraries
        from it.
    retries:
        Serial attempts per design *after* its first failure (pool or
        serial) before the design is declared dead.  Transient failures
        — a worker OOM-killed under memory pressure, a broken pool — are
        the common case on shared schedulers, and a bounded
        retry-with-backoff rides them out.  ``0`` fails fast.
    retry_backoff:
        Base of the exponential backoff between serial attempts:
        attempt *k* (0-based) sleeps ``retry_backoff * 2**k`` seconds
        first.  ``0`` retries immediately.
    """
    ladder = ladder if ladder is not None else NodeLadder(ANCHOR_NMS)
    libs = ladder.libraries()
    # Content key: the features of every design depend on the whole
    # library set (the gate one-hot spans the merged vocabulary), so
    # the cache keys on a digest of all of it, not just the node label.
    lib_digest = library_set_digest(libs)

    cache = FlowCache(cache_dir)
    results: Dict[int, DesignData] = {}
    misses: List[int] = []
    for i, (name, node) in enumerate(names):
        cached = cache.load(name, node, scale, resolution, seed,
                            lib_digest) if use_cache else None
        if cached is not None:
            results[i] = cached
        else:
            misses.append(i)

    pool_failed: Dict[int, BaseException] = {}
    if misses and workers > 1:
        tasks = {i: (names[i][0], names[i][1], scale, resolution, seed,
                     ladder.spec)
                 for i in misses}
        done, pool_failed = _run_parallel(tasks, workers)
        for i, (design, worker_timings) in done.items():
            results[i] = design
            # Fold the worker's per-phase accumulators into this
            # process's registry: subprocess flow time would otherwise
            # vanish from every timing report.
            merge_timings(worker_timings)
        # Anything that failed in the pool is retried serially below
        # (with backoff), which either recovers it — pool-specific or
        # transient failure — or pins the error on a named design.
        misses_serial = sorted(pool_failed)
    else:
        misses_serial = misses

    if misses_serial:
        from .pnr import PnRFlow

        flow = PnRFlow(libs, vocab=GateVocabulary(list(libs.values())),
                       resolution=resolution, scale=scale, seed=seed)
        errors: List[Tuple[str, str, BaseException]] = []
        for i in misses_serial:
            name, node = names[i]
            # A pool failure consumed the design's first attempt; a
            # fresh serial miss gets its first attempt here.  Either
            # way up to ``retries`` further attempts follow, with
            # exponential backoff (base * 2^k after the k-th failure)
            # in between.
            failure: Optional[BaseException] = pool_failed.get(i)
            failed_attempts = 1 if failure is not None else 0
            while failed_attempts <= retries:
                if failed_attempts and retry_backoff > 0:
                    _sleep(retry_backoff * (2 ** (failed_attempts - 1)))
                try:
                    results[i] = flow.run(name, node)
                    failure = None
                    break
                # repro-check: disable=bare-except -- collects per-design causes to re-raise as one FlowBuildError naming every failed (name, node)
                except Exception as exc:
                    failure = exc
                    failed_attempts += 1
            if failure is not None:
                errors.append((name, node, failure))
        if errors:
            raise FlowBuildError(errors)

    if use_cache:
        for i in misses:
            cache.store(results[i], scale, resolution, seed, lib_digest)
    return [results[i] for i in range(len(names))]
