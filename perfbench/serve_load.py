"""The ``serve`` workload: a closed-loop load generator for ``repro serve``.

Two persistent connections each send uncertainty requests
(``mc_samples=64``) cycling the 10 served designs, and wait for every
reply before sending the next.  After every ``RELOAD_EVERY`` requests
on connection 0, a third (control) connection atomically replaces the
checkpoint file with the other of two pre-trained models and POSTs
``/reload``, so the next request for each design misses the feature
cache and runs the GNN+CNN sweep.  Sampled responses are checked
bit-for-bit (atol 1e-10) against an in-process
:class:`repro.infer.InferenceEngine` answer for the model generation
that served them.
"""

from __future__ import annotations

import os
import queue
import random
import re
import shutil
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import STATE, Session, peak_rss_mb
from tracer import Patches, Tracer

MC_SAMPLES = 64
RELOAD_EVERY = 100
#: Every SAMPLE_EVERY-th response of each connection is kept and checked.
SAMPLE_EVERY = 5
CONNECTIONS = 2


def swap_checkpoint(source: Path, served: Path) -> None:
    """Atomically make ``served`` a copy of ``source``.

    The bytes are staged next to the target and renamed over it, so a
    reader opening ``served`` at any moment sees one whole checkpoint.
    """
    staged = served.with_name(f".{served.name}.{os.getpid()}.tmp")
    shutil.copyfile(source, staged)
    os.replace(staged, served)


def design_cycle(names: Sequence[str], seed: int) -> List[str]:
    """The order requests cycle the designs in (fixed by the seed)."""
    order = sorted(names)
    random.Random(seed).shuffle(order)
    return order


class Load:
    """What one closed-loop drive observed."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (conn, start, end, design, generation) per /predict reply.
        self.replies: List[Tuple[int, float, float, str, int]] = []
        #: (start, end, new generation) per /reload.
        self.reloads: List[Tuple[float, float, int]] = []
        #: (conn, start, end, design, generation, mean, std) samples.
        self.samples: List[tuple] = []
        self.errors: List[str] = []
        self.window_s = 0.0

    def latencies(self) -> List[float]:
        return [end - start for _, start, end, _, _ in self.replies]


def drive(host: str, port: int, order: Sequence[str], request_seed: int,
          served: Path, models: Sequence[Path],
          seconds: Optional[float] = None,
          per_connection: Optional[int] = None) -> Load:
    """Run the closed loop until ``seconds`` pass or every connection
    has sent ``per_connection`` requests.

    Reloads go over a separate control connection, so the request
    connections never pause: requests that arrive during a reload wait
    for it, as they would in a deployment that pushes a new model.
    """
    from repro.serve.client import ServingClient, ServingError

    load = Load()
    stop = threading.Event()
    due: "queue.Queue[Optional[int]]" = queue.Queue()

    def connection(conn: int) -> None:
        offset = conn * len(order) // CONNECTIONS
        with ServingClient(host, port) as client:
            k = 0
            while not stop.is_set() and (per_connection is None
                                         or k < per_connection):
                name = order[(offset + k) % len(order)]
                start = time.perf_counter()
                try:
                    body = client.predict(name, mc_samples=MC_SAMPLES,
                                          seed=request_seed,
                                          uncertainty=True)
                except (ServingError, OSError) as exc:
                    with load.lock:
                        load.errors.append(f"predict {name}: {exc}")
                    k += 1
                    continue
                end = time.perf_counter()
                gen = int(body["generation"])
                with load.lock:
                    load.replies.append((conn, start, end, name, gen))
                    if body["design"] != name:
                        load.errors.append(f"asked {name}, got "
                                           f"{body['design']}")
                    if k % SAMPLE_EVERY == 0:
                        load.samples.append((conn, start, end, name, gen,
                                             body["mean"], body["std"]))
                k += 1
                last = per_connection is not None and k >= per_connection
                if conn == 0 and k % RELOAD_EVERY == 0 and not last:
                    due.put(k)

    def control() -> None:
        generation = 1
        with ServingClient(host, port) as client:
            while due.get() is not None:
                swap_checkpoint(models[generation % 2], served)
                start = time.perf_counter()
                try:
                    status = client.reload()
                except (ServingError, OSError) as exc:
                    with load.lock:
                        load.errors.append(f"reload: {exc}")
                    continue
                end = time.perf_counter()
                generation += 1
                with load.lock:
                    load.reloads.append((start, end, generation))
                    if not status.get("reloaded") or \
                            status.get("generation") != generation:
                        load.errors.append(f"reload status {status}")

    threads = [threading.Thread(target=connection, args=(c,))
               for c in range(CONNECTIONS)]
    controller = threading.Thread(target=control)
    start = time.perf_counter()
    controller.start()
    for thread in threads:
        thread.start()
    try:
        if seconds is not None:
            stop.wait(seconds)
            stop.set()
        for thread in threads:
            thread.join(120.0)
        load.window_s = time.perf_counter() - start
    finally:
        # Also on SystemExit: the connections are not daemon threads.
        stop.set()
        due.put(None)
        controller.join(120.0)
    if any(t.is_alive() for t in threads + [controller]):
        stop.set()
        load.errors.append("a connection did not finish")
    return load


def rebuild_times(load: Load, designs: int) -> List[float]:
    """Per reload: seconds from sending ``/reload`` until every design
    has been answered under the new generation (cycles cut short by
    the next reload or the end of the window are skipped)."""
    out = []
    for start, _, gen in load.reloads:
        first: Dict[str, float] = {}
        for _, _, end, name, g in load.replies:
            if g == gen and (name not in first or end < first[name]):
                first[name] = end
        if len(first) == designs:
            out.append(max(first.values()) - start)
    return out


# ----------------------------------------------------------------------
# Reference answers and output checks
# ----------------------------------------------------------------------
def load_designs():
    from repro.experiments import build_dataset

    dataset = build_dataset(cache_dir=STATE / "designs")
    return dataset.train + dataset.test


def reference_answers(designs, models: Sequence[Path], request_seed: int):
    """``[model index][design] -> (mean, std)`` from in-process engines."""
    from repro.infer import InferenceEngine, load_predictor

    refs = []
    for path in models:
        engine = InferenceEngine(load_predictor(path))
        out = engine.predict_many(designs, mc_samples=MC_SAMPLES,
                                  with_uncertainty=True, seed=request_seed)
        refs.append({name: (p.mean, p.std) for name, p in out.items()})
    return refs


def check_samples(load: Load, refs) -> Tuple[int, int]:
    """``(checked, mismatched)`` over the kept samples.

    A sample whose request overlapped a reload is skipped: its reply
    may report the generation after the one whose weights computed it.
    Generation ``g`` was served by model ``(g - 1) % 2``.
    """
    import numpy as np

    checked = mismatched = 0
    for _, start, end, name, gen, mean, std in load.samples:
        if any(start < r_end and r_start < end
               for r_start, r_end, _ in load.reloads):
            continue
        ref_mean, ref_std = refs[(gen - 1) % 2][name]
        checked += 1
        if not (np.allclose(mean, ref_mean, rtol=0, atol=1e-10)
                and np.allclose(std, ref_std, rtol=0, atol=1e-10)):
            mismatched += 1
    return checked, mismatched


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.serve --model`` as its own process."""

    def __init__(self, served: Path) -> None:
        self.session = Session(
            ["-m", "repro.serve", "--model", str(served), "--port", "0",
             "--cache-dir", str(STATE / "designs")])
        try:
            banner = self.session.wait_for_banner("serving ")
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            self.host, self.port = match.group(1), int(match.group(2))
        except BaseException:
            self.session.close()
            raise

    @property
    def setup_s(self) -> float:
        return self.session.setup_s

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.session.proc.pid)

    def close(self) -> None:
        self.session.close()


def setup_only_server(models) -> float:
    """Start a server, wait until it serves, stop it: its set-up time."""
    served = STATE / "served.npz"
    swap_checkpoint(models[0], served)
    server = ServerProcess(served)
    server.close()
    return server.setup_s


def serve_session(order, request_seed, models, seconds) -> Dict[str, object]:
    """One server process under load for ``seconds``."""
    from repro.serve.client import ServingClient

    served = STATE / "served.npz"
    swap_checkpoint(models[0], served)
    server = ServerProcess(served)
    try:
        load = drive(server.host, server.port, order, request_seed,
                     served, models, seconds=seconds)
        with ServingClient(server.host, server.port) as client:
            stats = client.stats()
        rss = server.peak_rss_mb()
    finally:
        server.close()
    return {"load": load, "setup_s": server.setup_s, "peak_rss_mb": rss,
            "stats": stats}


# ----------------------------------------------------------------------
# Traced run: the server in this process, layers wrapped
# ----------------------------------------------------------------------
#: Sweep layers, attributed per coalesced batch (self seconds).
SWEEP_LAYERS = {
    "infer.digest_s": "infer.digest",
    "infer.features_s": "infer.features",
    "infer.struct_s": "infer.struct",
    "infer.prior_s": "infer.prior",
    "infer.readout_s": "infer.readout",
    "infer.predict_many_s": "infer.predict_many",
}


class SweepLedger:
    """Request-weighted accounting of coalesced sweeps.

    A sweep serves every request in its batch, so each layer's time in
    the sweep is charged once per request; the ledger then adds up to
    the requests' summed latency, like the client-side sums it is
    compared with.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.submitted: Dict[int, float] = {}
        self.wait_s = 0.0
        self.sweep_s = 0.0
        self.layers = {row: 0.0 for row in SWEEP_LAYERS}

    def install(self, patches: Patches) -> None:
        from repro.serve.coalescer import RequestCoalescer

        ledger = self

        def make_submit(original):
            def submit(*args, **kwargs):
                start = time.perf_counter()
                pending = original(*args, **kwargs)
                ledger.submitted[id(pending)] = start
                return pending
            return submit

        def make_process(original):
            def process(coalescer, batch):
                tracer = ledger.tracer
                before = {n: tracer.self_time(n)
                          for n in SWEEP_LAYERS.values()}
                start = time.perf_counter()
                try:
                    return original(coalescer, batch)
                finally:
                    elapsed = time.perf_counter() - start
                    n = len(batch)
                    ledger.wait_s += sum(
                        start - ledger.submitted.pop(id(p), start)
                        for p in batch)
                    ledger.sweep_s += n * elapsed
                    for row, name in SWEEP_LAYERS.items():
                        ledger.layers[row] += n * (tracer.self_time(name)
                                                   - before[name])
            return process

        patches.hook(RequestCoalescer, "submit", make_submit)
        patches.hook(RequestCoalescer, "_process", make_process)


def install_serve_layers(patches: Patches) -> None:
    """Wrap the serving layers as the server and the engine see them."""
    from repro.infer import engine
    from repro.model import bayesian, gnn, predictor
    from repro.serve import server

    patches.wrap(server.PredictionService, "predict", "serve.predict")
    patches.wrap(server.ModelContainer, "reload", "serve.reload")
    patches.wrap(server, "load_predictor", "infer.load_predictor")
    patches.wrap(engine.InferenceEngine, "predict_many",
                 "infer.predict_many")
    patches.wrap(engine, "weight_digest", "infer.digest")
    patches.wrap(gnn.TimingGNN, "forward", "infer.features")
    patches.wrap(engine, "cnn_forward", "infer.features")
    for attr in ("FusedDesignBatch", "image_columns"):
        patches.wrap(engine, attr, "infer.struct")
    patches.wrap(predictor.TimingPredictor, "_prior_feature", "infer.prior")
    patches.wrap(bayesian.BayesianReadout, "weight_distribution",
                 "infer.prior")
    patches.wrap(predictor.TimingPredictor, "_sample_prior_predictions",
                 "infer.readout")


def inprocess_drive(designs, order, request_seed, models, per_connection,
                    traced: bool) -> Dict[str, object]:
    """The fixed request script against a server hosted on a thread."""
    from repro.infer import load_predictor
    from repro.serve.server import PredictionServer, ServerConfig, warm_up

    served = STATE / "served.npz"
    swap_checkpoint(models[0], served)
    tracer = Tracer()
    ledger = SweepLedger(tracer)
    with Patches(tracer) as patches:
        if traced:
            install_serve_layers(patches)
            ledger.install(patches)
        server = PredictionServer(designs, load_predictor(served),
                                  model_path=served,
                                  config=ServerConfig(port=0))
        warm_up(server.service)
        tracer.totals.clear()
        server.start()
        try:
            load = drive(server.host, server.port, order, request_seed,
                         served, models, per_connection=per_connection)
            engine_stats = server.container.engine.stats()
            coalescer_stats = server.service.coalescer.stats()
        finally:
            server.stop()
    return {"load": load, "tracer": tracer, "ledger": ledger,
            "engine": engine_stats, "coalescer": coalescer_stats}
