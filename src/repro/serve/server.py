"""Resident multi-threaded HTTP prediction server (`repro serve`).

One process keeps one warm :class:`~repro.infer.InferenceEngine` (and
its feature cache) per loaded model and serves it over plain stdlib
HTTP — no new dependencies:

``POST /predict``
    ``{"design": name, "mc_samples": 0, "seed": 0,
    "uncertainty": false}`` -> per-endpoint predictions.  Concurrent
    requests landing within the coalescing window are fused into one
    ``predict_many`` union-graph sweep (see
    :mod:`repro.serve.coalescer`); the response reports how many
    requests shared the sweep.  ``mc_samples`` must lie in
    ``[0, MAX_MC_SAMPLES]`` and ``uncertainty`` must be a JSON boolean;
    anything else is a 400.  A body longer than :data:`MAX_BODY_BYTES`
    is refused with 413, and a malformed ``Content-Length`` or a
    truncated body with 400; both close the connection.

``GET /healthz`` / ``GET /stats``
    Liveness (model digest, generation) and serving telemetry: cache
    hit/eviction counters for every engine tier, coalescer batch
    shape, request latency percentiles, and the process timing
    registry.

``POST /reload``
    Reload the model checkpoint from disk and atomically swap it into
    the engine (also triggered by mtime polling).  The blake2b weight
    digest keys the feature cache, so no explicit flush happens — old
    entries simply stop matching.  A checkpoint that fails to load
    (torn file, wrong version) or whose input width differs from the
    served model's is reported and the old model keeps serving; a
    request can never observe a half-swapped model because the swap
    takes the engine's write lock.

The split mirrors the learner/serving architecture of the
circuit-training exemplar: :class:`ModelContainer` is the variable
container (versioned weights, consumers pull), the handler threads are
the actors, and the training process that rewrites the checkpoint is
the learner.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..flow import DesignData
from ..infer import InferenceEngine, load_predictor, weight_digest
from ..model import TimingPredictor
from ..nn.serialization import CheckpointError
from ..util import get_timings
from .coalescer import CoalescerClosed, RequestCoalescer

__all__ = ["ModelContainer", "PredictionServer", "PredictionService",
           "ServerConfig"]

#: Largest request body the server reads.  A ``/predict`` body is about
#: 100 bytes; a longer declared ``Content-Length`` is refused unread.
MAX_BODY_BYTES = 1 << 16

#: Largest ``mc_samples`` one ``/predict`` may ask for.  A request's
#: memory grows linearly with it, so an unbounded value would let one
#: request exhaust the host.
MAX_MC_SAMPLES = 4096

#: Request latencies kept for the ``/stats`` percentiles.
LATENCY_WINDOW = 4096


class ServerConfig:
    """Knobs of one serving process (CLI flags map 1:1 onto these)."""

    __slots__ = ("host", "port", "batch_window_ms", "max_batch",
                 "poll_interval")

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 batch_window_ms: float = 2.0, max_batch: int = 32,
                 poll_interval: float = 0.0) -> None:
        self.host = host
        self.port = port
        self.batch_window_ms = batch_window_ms
        self.max_batch = max_batch
        self.poll_interval = poll_interval


class ModelContainer:
    """Versioned holder of the served predictor (the variable container).

    Owns the engine and the checkpoint path; ``reload()`` stages a
    fresh :func:`~repro.infer.load_predictor` (which validates the full
    archive *before* building a model) and swaps it into the engine
    under the engine's write lock.  Readers never see an intermediate
    state; a failed load, or a model whose input width differs from
    the served one (the served designs could not run it), leaves the
    old model serving and is recorded for /stats.
    """

    def __init__(self, model: TimingPredictor,
                 model_path: Union[str, Path, None] = None) -> None:
        self.engine = InferenceEngine(model)
        self.model_path = Path(model_path) if model_path else None
        self._lock = threading.Lock()
        self.generation = 1
        self.digest = weight_digest(model)
        self.reloads = 0
        self.failed_reloads = 0
        self.last_reload_error: Optional[str] = None
        self._mtime = self._current_mtime()

    def _current_mtime(self) -> Optional[float]:
        if self.model_path is None:
            return None
        try:
            return self.model_path.stat().st_mtime
        except OSError:
            return None

    def reload(self, force: bool = True) -> Dict[str, object]:
        """Swap in the checkpoint from disk (no-op if mtime unchanged
        and not forced).  Returns a status dict; raises CheckpointError
        only through the dict (callers serve it, they don't crash)."""
        with self._lock:
            if self.model_path is None:
                return {"reloaded": False,
                        "error": "server was started without --model; "
                                 "nothing to reload from"}
            mtime = self._current_mtime()
            if not force and mtime == self._mtime:
                return {"reloaded": False, "generation": self.generation,
                        "digest": self.digest}
            old_digest = self.digest
            try:
                model = load_predictor(self.model_path)
                served = self.engine.model.init_config["in_features"]
                wanted = model.init_config["in_features"]
                if wanted != served:
                    raise CheckpointError(
                        f"predictor checkpoint {self.model_path} expects "
                        f"{wanted} input features, the served designs "
                        f"have {served}")
            except CheckpointError as exc:
                self.failed_reloads += 1
                self.last_reload_error = str(exc)
                return {"reloaded": False, "error": str(exc),
                        "error_type": "CheckpointError",
                        "generation": self.generation,
                        "digest": self.digest}
            # Publish the generation last: a reader that sees the new
            # generation must also see the new digest.
            digest = weight_digest(model)
            self.engine.swap_model(model)
            self._mtime = mtime
            self.digest = digest
            self.generation += 1
            self.reloads += 1
            self.last_reload_error = None
            return {"reloaded": True, "generation": self.generation,
                    "old_digest": old_digest, "digest": self.digest}

    def poll(self) -> Dict[str, object]:
        """mtime-triggered reload (the polling thread's entry point)."""
        return self.reload(force=False)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "generation": self.generation,
                "digest": self.digest,
                "reloads": self.reloads,
                "failed_reloads": self.failed_reloads,
                "last_reload_error": self.last_reload_error,
                "model_path": str(self.model_path)
                if self.model_path else None,
            }


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


class PredictionService:
    """HTTP-free request logic (what the handler threads call).

    Keeping this separate from the ``BaseHTTPRequestHandler`` subclass
    makes the serving semantics unit-testable without sockets and keeps
    the handler a thin parse/serialize shim.
    """

    def __init__(self, designs: Sequence[DesignData],
                 container: ModelContainer,
                 config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.container = container
        self.designs: Dict[str, DesignData] = {}
        for design in designs:
            self.designs[design.name] = design
        self.coalescer: Optional[RequestCoalescer] = None
        if self.config.batch_window_ms > 0:
            self.coalescer = RequestCoalescer(
                container.engine,
                batch_window_ms=self.config.batch_window_ms,
                max_batch=self.config.max_batch)
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._latency_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def predict(self, payload: object) -> Tuple[int, Dict[str, object]]:
        """One /predict request: ``(http_status, response_body)``."""
        start = time.perf_counter()
        status, body = self._predict_inner(payload)
        elapsed = time.perf_counter() - start
        with self._latency_lock:
            self._requests += 1
            if status != 200:
                self._errors += 1
            else:
                self._latencies.append(elapsed)
        return status, body

    def _predict_inner(self, payload: object
                       ) -> Tuple[int, Dict[str, object]]:
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        name = payload.get("design")
        if not isinstance(name, str):
            return 400, {"error": "missing string field 'design'"}
        design = self.designs.get(name)
        if design is None:
            return 404, {"error": f"unknown design {name!r}",
                         "known": sorted(self.designs)}
        try:
            mc_samples = int(payload.get("mc_samples", 0))
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError, OverflowError):
            return 400, {"error": "mc_samples/seed must be integers"}
        uncertainty = payload.get("uncertainty", False)
        if not isinstance(uncertainty, bool):
            return 400, {"error": "uncertainty must be true or false"}
        if seed < 0:
            return 400, {"error": "seed must be non-negative"}
        if not 0 <= mc_samples <= MAX_MC_SAMPLES:
            return 400, {"error": f"mc_samples must be between 0 and "
                                  f"{MAX_MC_SAMPLES}"}
        if uncertainty and mc_samples == 0:
            mc_samples = 16
        try:
            if self.coalescer is not None:
                pending = self.coalescer.submit(
                    design, mc_samples=mc_samples,
                    with_uncertainty=uncertainty, seed=seed)
                prediction = pending.wait(timeout=60.0)
                batched_with = pending.batch_size
            else:
                # No-coalescing baseline: the handler thread calls the
                # engine directly — the leanest per-request dispatch.
                prediction = self.container.engine.predict_many(
                    [design], mc_samples=mc_samples,
                    with_uncertainty=uncertainty, seed=seed)[design.name]
                batched_with = 1
        except CoalescerClosed:
            return 503, {"error": "server is shutting down"}
        except CheckpointError as exc:
            return 503, {"error": str(exc),
                         "error_type": "CheckpointError"}
        except TimeoutError:
            return 504, {"error": "prediction timed out"}
        # repro-check: disable=bare-except -- any other engine failure is answered with a 500 and counted in /stats, never a dropped connection
        except Exception as exc:  # noqa: BLE001 - reported to the client
            traceback.print_exc()
            return 500, {"error": str(exc),
                         "error_type": type(exc).__name__}
        body = {
            "design": prediction.name,
            "node": prediction.node,
            "num_endpoints": prediction.num_endpoints,
            "mean": prediction.mean.tolist(),
            "std": prediction.std.tolist()
            if prediction.std is not None else None,
            "coalesced": batched_with,
            "generation": self.container.generation,
        }
        return 200, body

    # ------------------------------------------------------------------
    def healthz(self) -> Tuple[int, Dict[str, object]]:
        return 200, {
            "status": "ok",
            "designs": len(self.designs),
            "generation": self.container.generation,
            "digest": self.container.digest,
        }

    def stats(self) -> Tuple[int, Dict[str, object]]:
        with self._latency_lock:
            latencies = list(self._latencies)
            requests, errors = self._requests, self._errors
        body = {
            "uptime_seconds": time.monotonic() - self._started,
            "requests": requests,
            "errors": errors,
            "latency": {
                "count": len(latencies),
                "p50_ms": _percentile(latencies, 50) * 1e3,
                "p99_ms": _percentile(latencies, 99) * 1e3,
                "max_ms": max(latencies) * 1e3 if latencies else 0.0,
            },
            "engine": self.container.engine.stats(),
            "model": self.container.stats(),
            "coalescer": self.coalescer.stats()
            if self.coalescer is not None else None,
            "timings": {name: entry for name, entry in
                        get_timings().items()
                        if name.startswith("infer.")},
        }
        return 200, body

    def reload(self) -> Tuple[int, Dict[str, object]]:
        status = self.container.reload(force=True)
        if status.get("error_type") == "CheckpointError":
            return 500, status
        if status.get("error"):
            return 400, status
        return 200, status

    def close(self) -> None:
        if self.coalescer is not None:
            self.coalescer.close()


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :class:`PredictionService` (one per request,
    on a ThreadingHTTPServer worker thread)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"   # keep-alive for persistent clients
    #: Headers and body go out as separate writes; without TCP_NODELAY
    #: Nagle holds the second one for the peer's delayed ACK (~40 ms
    #: per request on Linux loopback).
    disable_nagle_algorithm = True

    # Set per server class via make_server_class().
    service: PredictionService

    def _respond(self, status: int, body: Dict[str, object],
                 close: bool = False) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            # Also sets close_connection: the handler stops reading.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _read_body(self) -> Optional[bytes]:
        """The request body; None once a refusal has been answered.

        A body that cannot be read in full is answered and the
        connection closed: its bytes were not drained, so on a
        keep-alive connection they would be parsed as the next request.
        """
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            status, error = 400, f"bad Content-Length header {header!r}"
        elif length > MAX_BODY_BYTES:
            status, error = 413, (f"request body of {length} bytes exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
        else:
            raw = self.rfile.read(length)
            if len(raw) == length:
                return raw
            status, error = 400, (f"request body truncated: got "
                                  f"{len(raw)} of {length} bytes")
        self._respond(status, {"error": error}, close=True)
        return None

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/healthz":
            self._respond(*self.service.healthz())
        elif self.path == "/stats":
            self._respond(*self.service.stats())
        else:
            self._respond(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        # Always drain the body, whatever the route: on a keep-alive
        # connection unread body bytes would be parsed as the next
        # request line.
        raw = self._read_body()
        if raw is None:
            return
        if self.path == "/predict":
            try:
                payload = json.loads(raw or b"{}")
            except json.JSONDecodeError as exc:
                self._respond(400, {"error": f"bad request body: {exc}"})
                return
            self._respond(*self.service.predict(payload))
        elif self.path == "/reload":
            self._respond(*self.service.reload())
        else:
            self._respond(404, {"error": f"no route {self.path!r}"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass   # request logging goes through /stats, not stderr


class PredictionServer:
    """The resident process: HTTP server + service + reload polling.

    ``start()`` binds and spins up the serving threads and returns (the
    HTTP loop runs on a daemon thread); ``serve_forever()`` blocks the
    calling thread until ``stop()``.  Construction order matters for a
    clean shutdown: stop the listener first (no new requests), then the
    coalescer (drain pending), then the poller.
    """

    def __init__(self, designs: Sequence[DesignData],
                 model: TimingPredictor,
                 model_path: Union[str, Path, None] = None,
                 config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.container = ModelContainer(model, model_path)
        self.service = PredictionService(designs, self.container,
                                         self.config)
        handler = type("BoundHandler", (_Handler,),
                       {"service": self.service})
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler)
        self._httpd.daemon_threads = True
        self._http_thread: Optional[threading.Thread] = None
        self._poll_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    # ------------------------------------------------------------------
    def _poll_loop(self) -> None:
        interval = self.config.poll_interval
        while not self._stopping.wait(interval):
            self.container.poll()

    def start(self) -> "PredictionServer":
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http", daemon=True)
        self._http_thread.start()
        if self.config.poll_interval > 0 and \
                self.container.model_path is not None:
            self._poll_thread = threading.Thread(
                target=self._poll_loop, name="repro-serve-poll",
                daemon=True)
            self._poll_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until stop() (Ctrl-C in the CLI path)."""
        if self._http_thread is None:
            self.start()
        try:
            while not self._stopping.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        self.service.close()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=5.0)

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def warm_up(service: PredictionService,
            names: Optional[List[str]] = None) -> int:
    """Prime the feature cache with one fused sweep over ``names``
    (default: every served design).  Returns the number warmed."""
    designs = [service.designs[n] for n in (names or
                                            sorted(service.designs))]
    if designs:
        service.container.engine.predict_many(designs)
    return len(designs)
