"""Micro-batching request coalescer for the resident prediction server.

Concurrent single-design requests are the serving pattern, and the
engine's cheapest shape for them is one fused ``predict_many`` call:
one weight digest, one union-graph extraction for the cache misses,
one batched prior-MLP forward.  The coalescer is the funnel that turns
N handler threads into that shape:

- :meth:`RequestCoalescer.submit` enqueues a request and blocks the
  *calling* thread on a per-request event;
- a single worker thread drains the queue, waiting up to
  ``batch_window_ms`` (and up to ``max_batch`` requests) for
  companions to land, fuses each compatible group into one
  ``predict_many`` sweep, and fans the per-design results back out;
- requests are compatible when their options agree — ``predict_many``
  draws a fresh seeded generator per design, so a fused call returns
  bit-identical results to single-design calls with the same
  ``(mc_samples, with_uncertainty, seed)``.

The no-coalescing baseline the serving benchmark compares against
(``--batch-window-ms 0``) builds no coalescer: each handler thread
calls the engine itself (:class:`repro.serve.server.PredictionService`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..flow import DesignData
from ..infer.engine import InferenceEngine, Prediction

__all__ = ["CoalescerClosed", "PendingPrediction", "RequestCoalescer"]

#: Requests fuse only when these agree.
OptionsKey = Tuple[int, bool, int]


class CoalescerClosed(RuntimeError):
    """Submit after (or during) shutdown."""


class PendingPrediction:
    """One in-flight request: a slot the worker fills, an event the
    submitting thread waits on."""

    __slots__ = ("design", "options", "result", "error", "batch_size",
                 "_done")

    def __init__(self, design: DesignData, options: OptionsKey) -> None:
        self.design = design
        self.options = options
        self.result: Optional[Prediction] = None
        self.error: Optional[BaseException] = None
        self.batch_size = 0
        self._done = threading.Event()

    def _finish(self, result: Optional[Prediction],
                error: Optional[BaseException], batch_size: int) -> None:
        self.result = result
        self.error = error
        self.batch_size = batch_size
        self._done.set()

    def wait(self, timeout: Optional[float] = None) -> Prediction:
        """Block until the fused batch containing this request ran."""
        if not self._done.wait(timeout):
            raise TimeoutError("prediction not ready within timeout")
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class RequestCoalescer:
    """Fuse concurrent single-design requests into ``predict_many`` sweeps.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.infer.InferenceEngine`.  The engine
        outlives model hot-reloads (``swap_model`` replaces the weights
        inside it), so the coalescer can hold it directly.
    batch_window_ms:
        Upper bound on how long the first request of a batch waits for
        companions; must be > 0 (``max_batch=1`` gives single-request
        batches).
    max_batch:
        Hard cap on requests fused into one sweep.

    Batches also close early: once the queue has been idle for
    ``idle_gap_ms`` (``batch_window_ms / 2``, at least 0.2 ms), the
    batch dispatches without waiting out the rest of the window.
    Concurrent requests land microseconds apart, so with a closed-loop
    client fleet the full window would otherwise be pure dead time
    every round; too small a gap splits a batch whenever a client
    thread is briefly starved, paying a second sweep for the
    stragglers.
    """

    def __init__(self, engine: InferenceEngine,
                 batch_window_ms: float = 2.0,
                 max_batch: int = 32) -> None:
        if batch_window_ms <= 0:
            raise ValueError("batch_window_ms must be > 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.engine = engine
        self.batch_window_ms = float(batch_window_ms)
        self.max_batch = int(max_batch)
        self.idle_gap_ms = max(0.2, self.batch_window_ms / 2)
        self._queue: "queue.Queue[PendingPrediction]" = queue.Queue()
        self._closed = threading.Event()
        self._stats_lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._fused_requests = 0   # requests that shared their batch
        self._largest_batch = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-coalescer", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Submission side (handler threads)
    # ------------------------------------------------------------------
    def submit(self, design: DesignData, mc_samples: int = 0,
               with_uncertainty: bool = False,
               seed: int = 0) -> PendingPrediction:
        """Enqueue one request; returns a handle to ``wait()`` on."""
        if self._closed.is_set():
            raise CoalescerClosed("coalescer is shut down")
        pending = PendingPrediction(
            design, (int(mc_samples), bool(with_uncertainty), int(seed)))
        self._queue.put(pending)
        return pending

    def predict(self, design: DesignData, mc_samples: int = 0,
                with_uncertainty: bool = False, seed: int = 0,
                timeout: Optional[float] = None) -> Prediction:
        """Blocking convenience: submit and wait."""
        return self.submit(design, mc_samples, with_uncertainty,
                           seed).wait(timeout)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _gather(self) -> Optional[List[PendingPrediction]]:
        """One batch: the next request plus companions arriving within
        the window (None when idle / shutting down)."""
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return None
        batch = [first]
        deadline = time.monotonic() + self.batch_window_ms / 1e3
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Window elapsed — but never leave already-queued
                # requests behind a sweep they could have joined.
                try:
                    batch.append(self._queue.get_nowait())
                    continue
                except queue.Empty:
                    break
            try:
                batch.append(self._queue.get(
                    timeout=min(remaining, self.idle_gap_ms / 1e3)))
            except queue.Empty:
                break   # queue went idle: dispatch early
        return batch

    def _run(self) -> None:
        while not self._closed.is_set():
            batch = self._gather()
            if batch:
                self._process(batch)
        # Drain: fail anything still queued so no submitter hangs.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending._finish(None, CoalescerClosed("coalescer shut down"),
                            0)

    def _process(self, batch: Sequence[PendingPrediction]) -> None:
        groups: Dict[OptionsKey, List[PendingPrediction]] = {}
        for pending in batch:
            groups.setdefault(pending.options, []).append(pending)
        with self._stats_lock:
            self._requests += len(batch)
            self._batches += 1
            if len(batch) > 1:
                self._fused_requests += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
        for (mc_samples, with_uncertainty, seed), group in groups.items():
            # Dedupe: two requests for the same design in one window
            # share a single slot in the fused sweep.
            unique: Dict[Tuple[str, str], DesignData] = {}
            for pending in group:
                unique.setdefault(
                    (pending.design.name, pending.design.node),
                    pending.design)
            try:
                results = self.engine.predict_many(
                    list(unique.values()), mc_samples=mc_samples,
                    with_uncertainty=with_uncertainty, seed=seed)
            # repro-check: disable=bare-except -- any engine failure must fan out to the waiting submitters, not kill the worker thread
            except BaseException as exc:  # noqa: BLE001 - fan out as-is
                for pending in group:
                    pending._finish(None, exc, len(batch))
                continue
            for pending in group:
                pending._finish(results[pending.design.name], None,
                                len(batch))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Coalescing counters for the /stats endpoint."""
        with self._stats_lock:
            requests, batches = self._requests, self._batches
            return {
                "requests": requests,
                "batches": batches,
                "coalesced_requests": self._fused_requests,
                "largest_batch": self._largest_batch,
                "mean_batch_size": requests / batches if batches else 0.0,
                "queue_depth": self._queue.qsize(),
                "batch_window_ms": self.batch_window_ms,
                "idle_gap_ms": self.idle_gap_ms,
                "max_batch": self.max_batch,
            }

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; pending requests fail with CoalescerClosed."""
        self._closed.set()
        self._thread.join(timeout)
        # A submit may have slipped its request in between the worker's
        # final drain and its exit; fail it rather than strand it.
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending._finish(None, CoalescerClosed("coalescer shut down"),
                            0)

    def __enter__(self) -> "RequestCoalescer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
