"""Serving benchmark: request coalescing vs per-request dispatch.

Starts two in-process :class:`~repro.serve.PredictionServer` instances
over the same trained predictor — one with the coalescing window open,
one at window 0 (every handler thread calls the engine directly) — and
hammers each with the same concurrent client fleet over persistent
HTTP/1.1 connections.  The claim under test (DESIGN.md §13): fusing the
requests that land within a few-millisecond window into one
``predict_many`` union-graph sweep beats dispatching them individually,
because the window's worth of requests pays one weight-digest check and
one fused sweep instead of one each — and duplicate requests for the
same design collapse onto a single slot in the sweep.

The workload models the paper's serving pattern: an optimisation loop
hammering uncertainty-aware timing queries (``mc_samples`` Monte-Carlo
draws) against a small hot set of designs.  Both servers are warmed
first (feature cache primed), so the benchmark measures steady-state
serving, and every served prediction is checked bit-for-bit against
the direct in-process engine answer — a fast wrong answer is not a
speedup.

Measured numbers land in ``benchmarks/BENCH_serving.json`` (schema:
``repro.obs.schema.validate_bench_serving``; the committed copy is the
recorded baseline).  ``REPRO_BENCH_SMOKE=1`` shrinks the request
counts for CI, where only the schema and equivalence — not the >=2x
throughput ratio — are asserted (shared runners make ratio floors
flaky).
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.model import TimingPredictor
from repro.serve import PredictionServer, ServerConfig, ServingClient
from repro.serve.server import warm_up

from .conftest import bench_seed, record

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_serving.json"

ATOL = 1e-10
CLIENTS = 12
WINDOW_MS = 5.0
MC_SAMPLES = 256
HOT_DESIGNS = 2          # requests cycle over the N largest designs


def smoke_mode() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def requests_per_client() -> int:
    return 5 if smoke_mode() else 25


def hammer_repeats() -> int:
    """Hammer rounds per server; the best round is recorded (the
    repo's min-wall-clock robust statistic)."""
    return 1 if smoke_mode() else 3


@pytest.fixture(scope="module")
def model(dataset):
    m = TimingPredictor(dataset.in_features, seed=bench_seed())
    m.finalize_node_priors(dataset.train)
    return m


def _hammer(server, designs, clients, per_client):
    """``clients`` threads, each firing ``per_client`` uncertainty
    requests over one persistent connection, cycling the designs.
    Returns wall-clock seconds, per-request latencies, and the
    collected predictions."""
    barrier = threading.Barrier(clients + 1)
    latencies = [[] for _ in range(clients)]
    answers = [[] for _ in range(clients)]

    def run(i):
        client = ServingClient(server.host, server.port, timeout=60.0)
        try:
            client.healthz()   # open the connection before the clock
            barrier.wait()
            for k in range(per_client):
                design = designs[(i + k) % len(designs)]
                start = time.perf_counter()
                out = client.predict(design.name,
                                     mc_samples=MC_SAMPLES,
                                     uncertainty=True)
                latencies[i].append(time.perf_counter() - start)
                answers[i].append((design.name, out["mean"],
                                   out["std"]))
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    flat = [lat for per in latencies for lat in per]
    preds = [entry for per in answers for entry in per]
    return elapsed, flat, preds


@pytest.fixture(scope="module")
def measurements(dataset, model):
    designs = sorted(dataset.test, key=lambda d: -d.num_endpoints)
    hot = designs[:HOT_DESIGNS]
    clients = CLIENTS
    per_client = requests_per_client()
    total = clients * per_client

    reference = InferenceEngine(model)
    reference.predict_many(dataset.test)   # warm every served design
    ref = {}
    for d in hot:
        pred = reference.predict_many([d], mc_samples=MC_SAMPLES,
                                      with_uncertainty=True,
                                      seed=0)[d.name]
        ref[d.name] = (pred.mean, pred.std)

    results = {}
    stats = {}
    for label, window in (("uncoalesced", 0.0), ("coalesced", WINDOW_MS)):
        config = ServerConfig(port=0, batch_window_ms=window,
                              max_batch=clients)
        with PredictionServer(dataset.test, model,
                              config=config) as server:
            warm_up(server.service)
            best = None
            for _ in range(hammer_repeats()):
                run = _hammer(server, hot, clients, per_client)
                if best is None or run[0] < best[0]:
                    best = run
            results[label] = best
            stats[label] = server.service.coalescer.stats() \
                if server.service.coalescer is not None else {}

    diffs = []
    for label in results:
        for name, mean, std in results[label][2]:
            ref_mean, ref_std = ref[name]
            diffs.append(np.max(np.abs(np.asarray(mean) - ref_mean)))
            diffs.append(np.max(np.abs(np.asarray(std) - ref_std)))

    def block(label):
        elapsed, latencies, _ = results[label]
        lat = np.asarray(latencies)
        return {
            "requests_per_second": total / elapsed,
            "p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "p99_ms": float(np.percentile(lat, 99)) * 1e3,
            "clients": clients,
            "requests": total,
        }

    coalesced = block("coalesced")
    coalesced["batch_window_ms"] = WINDOW_MS
    coalesced["max_batch"] = clients
    coalesced["mean_batch_size"] = stats["coalesced"]["mean_batch_size"]
    uncoalesced = block("uncoalesced")
    return {
        "coalesced": coalesced,
        "uncoalesced": uncoalesced,
        "speedup": {
            "throughput_ratio": coalesced["requests_per_second"]
            / uncoalesced["requests_per_second"],
        },
        "equivalence": {
            "max_abs_diff": float(max(diffs)),
            "atol": ATOL,
        },
        "workload": {
            "mc_samples": MC_SAMPLES,
            "uncertainty": True,
            "hot_designs": [d.name for d in hot],
            "hammer_repeats": hammer_repeats(),
            "statistic": "min wall-clock",
        },
        "machine": {"cpu_count": os.cpu_count()},
        "smoke": smoke_mode(),
    }


def test_served_predictions_match_engine(measurements):
    assert measurements["equivalence"]["max_abs_diff"] <= ATOL


def test_payload_matches_schema_and_is_recorded(measurements,
                                                results_dir):
    from repro.obs import validate_bench_serving

    assert validate_bench_serving(measurements) == []
    c = measurements["coalesced"]
    u = measurements["uncoalesced"]
    s = measurements["speedup"]
    w = measurements["workload"]
    text = "\n".join([
        f"serving ({c['clients']} concurrent clients, "
        f"{c['requests']} requests, mc={w['mc_samples']} uncertainty "
        f"over {'/'.join(w['hot_designs'])})",
        f"  uncoalesced  {u['requests_per_second']:,.0f} req/s   "
        f"p50 {u['p50_ms']:.2f} ms   p99 {u['p99_ms']:.2f} ms",
        f"  coalesced    {c['requests_per_second']:,.0f} req/s   "
        f"p50 {c['p50_ms']:.2f} ms   p99 {c['p99_ms']:.2f} ms   "
        f"(window {c['batch_window_ms']} ms, "
        f"mean batch {c['mean_batch_size']:.1f})",
        f"  throughput ratio {s['throughput_ratio']:.2f}x",
    ])
    record(results_dir, "bench_serving", text)
    BENCH_JSON.write_text(json.dumps(measurements, indent=2) + "\n")


def test_coalescing_beats_per_request_dispatch(measurements):
    if measurements["smoke"]:
        pytest.skip("ratio floors are asserted on full runs only")
    assert measurements["speedup"]["throughput_ratio"] >= 2.0
