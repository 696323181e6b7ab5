"""The repository benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload train --seed 3 --seconds 40 --trace 0

Workloads (see README.md in this directory): ``train`` (fixed-step
default fit + save from the pre-built cache) and ``serve`` (closed-loop
load on ``repro serve`` with hot reloads).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once with the layers wrapped, and prints the per-layer tables and
metrics.  The traced ``train`` run also makes a cold serial build of
the Table-1 design set, so its tables price a cold ``repro train``.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Dict, List, Tuple

from common import (STATE, Session, host_probe, latency_summary, median,
                    probe_delta, program_present)
from tracer import format_table, unattributed

#: End-to-end metrics: name -> unit (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "build_s": "s",
    "steps_per_s": "1/s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

#: Per-layer metrics: name -> unit (every traced run reports all; a
#: layer the workload does not exercise reads 0).
PER_LAYER = {
    # the cold flow build of a traced train run
    "netlist.synthesize_s": "s", "place.place_s": "s",
    "route.estimate_s": "s", "sta.preroute_s": "s",
    "features.encode_s": "s", "features.images_s": "s",
    "features.cones_s": "s", "opt.optimize_s": "s", "route.route_s": "s",
    "sta.signoff_s": "s", "flow.cache_store_s": "s",
    "flow.unattributed_s": "s",
    "flow.pins": "count", "flow.endpoints": "count",
    "opt.cells_upsized": "count", "opt.buffers_inserted": "count",
    "flow.cache_bytes": "bytes", "features.cones_calls": "count",
    # train
    "flow.cache_load_s": "s", "model.init_s": "s", "train.init_s": "s",
    "nn.compile.trace_s": "s", "nn.compile.replay_s": "s",
    "nn.compile.replay.conv_s": "s", "nn.compile.replay.graph_s": "s",
    "nn.compile.replay.matmul_s": "s",
    "nn.compile.replay.elementwise_s": "s",
    "nn.compile.replay.layout_s": "s", "nn.compile.replay.other_s": "s",
    "nn.optim.clip_s": "s", "nn.optim.adam_s": "s",
    "train.step_self_s": "s", "train.validate_s": "s",
    "model.priors_s": "s", "infer.save_s": "s",
    "train.unattributed_s": "s",
    "train.programs": "count", "train.retraces": "count",
    "train.validations": "count",
    # serve
    "serve.http_s": "s", "serve.handler_s": "s",
    "serve.coalesce_wait_s": "s", "serve.batch_size": "count",
    "infer.predict_many_s": "s", "infer.digest_s": "s",
    "infer.features_s": "s", "infer.struct_s": "s", "infer.prior_s": "s",
    "infer.readout_s": "s", "infer.feature_hit_ratio": "ratio",
    "infer.struct_evictions": "count", "serve.reload_ms": "ms",
    "infer.load_predictor_s": "s", "serve.unattributed_s": "s",
    # every workload
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

#: A run starts job sessions back to back until the window has passed
#: (the last may overrun it), and runs at least this many.
MIN_SESSIONS = 2
#: Set-up-only sessions after each job session.  Set-up is short and
#: pure Python, so a run samples it several times and reports the
#: median.
EXTRA_SETUPS = {"train": 1, "serve": 2}
#: Loaded server processes per ``serve`` run.  Each serves for
#: ``--seconds / (SERVE_SESSIONS + 1)``; the set-up-only server starts
#: take about the remaining share of the window.
SERVE_SESSIONS = 3
#: Requests per connection of the fixed traced ``serve`` script.
TRACE_REQUESTS = 400


class Outcome:
    """What a run reports: checks, operation counts, metrics, text."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.values: Dict[str, float] = {}
        self.lines: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


def worker_args(workload: str, seed: int, mode: str) -> List[str]:
    return ["perfbench/worker.py", workload, "--seed", str(seed),
            "--mode", mode]


def run_session(args: List[str]) -> Tuple[Dict[str, object], float]:
    """One worker process: ``(result, setup_s)``."""
    session = Session(args)
    try:
        result = session.wait_for("result")
    finally:
        session.close()
    return result, session.setup_s


def setup_session(args: List[str]) -> float:
    """One set-up-only worker process: its set-up time."""
    session = Session(args)
    try:
        session.wait_for("ready")
    finally:
        session.close()
    return session.setup_s


def run_sessions(workload: str, seed: int, seconds: float):
    """Job sessions back to back through a window of ``seconds``, each
    followed by set-up-only sessions: ``(results, every set-up time)``."""
    results, setups = [], []
    start = time.perf_counter()
    while len(results) < MIN_SESSIONS \
            or time.perf_counter() - start < seconds:
        result, setup = run_session(worker_args(workload, seed, "plain"))
        results.append(result)
        setups.append(setup)
        setups += [setup_session(worker_args(workload, seed, "setup"))
                   for _ in range(EXTRA_SETUPS[workload])]
    return results, setups


# ----------------------------------------------------------------------
# The cold flow build (traced ``train`` runs only)
# ----------------------------------------------------------------------
def check_flow(out: Outcome, result, manifest) -> None:
    ok = out.check(result["digest"] == manifest["flow_digest"],
                   "flow build: design digest differs from the "
                   "pre-built cache")
    ok &= out.check(result["reload_digest"] == result["digest"],
                    "flow build: designs reloaded from the cache differ")
    ok &= out.check(result["designs"] == 10, "flow build: not 10 designs")
    out.attempted += result["designs"]
    out.failed += 0 if ok else result["designs"]


def trace_flow_build(out: Outcome, args, manifest) -> Tuple[float, float]:
    """A cold serial build of the Table-1 set, untraced and traced: adds
    the flow layer table to ``out``; returns ``(traced, plain)`` walls."""
    from worker import FLOW_LAYERS

    plain, _ = run_session(worker_args("flow_build", args.seed, "plain"))
    traced, _ = run_session(worker_args("flow_build", args.seed, "traced"))
    for result in (plain, traced):
        check_flow(out, result, manifest)
    rows = {name: tuple(traced["rows"][name]) for name in FLOW_LAYERS}
    wall = traced["wall_s"]
    out.values.update({name: seconds for name, (_, seconds) in rows.items()})
    out.values["flow.unattributed_s"] = unattributed(
        wall, (seconds for _, seconds in rows.values()))
    out.values.update(traced["counts"])
    out.lines.append(format_table(
        f"flow build layers (traced cold build, set digest "
        f"{traced['digest']}, self seconds)", wall, rows,
        "flow.unattributed_s"))
    return wall, plain["wall_s"]


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def check_train(out: Outcome, results, seed: int) -> None:
    """Same seed, same loss stream and weights: across the run's
    sessions, and against the first run of this seed in the checkout."""
    from worker import TRAIN_STEPS

    ref_path = STATE / "train_ref" / f"seed{seed}.json"
    first = results[0]
    fingerprint = {"loss_digest": first["loss_digest"],
                   "weight_digest": first["weight_digest"]}
    if ref_path.is_file():
        reference = json.loads(ref_path.read_text())
    else:
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(fingerprint))
        reference = fingerprint
    for result in results:
        ok = out.check(result["steps"] == TRAIN_STEPS,
                       "train: wrong step count")
        ok &= out.check(result["r2_finite"], "train: test R^2 not finite")
        for key in ("loss_digest", "weight_digest"):
            ok &= out.check(result[key] == reference[key],
                            f"train: {key} differs for seed {seed}")
        out.attempted += result["steps"]
        out.failed += 0 if ok else result["steps"]


def train(args, manifest) -> Outcome:
    out = Outcome()
    results, setups = run_sessions("train", args.seed, args.seconds)
    check_train(out, results, args.seed)
    walls = [r["wall_s"] for r in results]
    steps = sum(r["steps"] for r in results)
    step_s = [s for r in results for s in r["step_s"]]
    lat = latency_summary(step_s)
    out.values = {
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "build_s": median(walls),
        "steps_per_s": steps / sum(walls),
        "req_per_s": steps / sum(step_s),
        "p50_ms": lat["p50_ms"],
        "p99_ms": lat["p99_ms"],
    }
    final = results[0]
    out.lines.append(
        f"train: {len(results)} jobs x {final['steps']} steps, walls "
        f"{[round(w, 3) for w in walls]} s; final losses "
        + ", ".join(f"{k}={v!r}" for k, v in final["final_losses"].items())
        + f"; weight digest {final['weight_digest']}; test R^2 "
        + ", ".join(f"{r:.4f}" for r in final["test_r2"]))
    out.lines.append(f"step latency: {lat['count']} samples; set-ups "
                     f"{[round(s, 3) for s in setups]} s")
    return out


def trace_train(args, manifest) -> Outcome:
    """A cold ``repro train``: the flow build, then construct + fit +
    save, each once untraced and once traced."""
    from worker import OP_GROUPS, TRAIN_LAYERS

    out = Outcome()
    build_wall, build_plain = trace_flow_build(out, args, manifest)
    plain, _ = run_session(worker_args("train", args.seed, "plain"))
    traced, _ = run_session(worker_args("train", args.seed, "traced"))
    profiled, _ = run_session(worker_args("train", args.seed, "profiled"))
    check_train(out, [plain, traced, profiled], args.seed)
    rows = {name: tuple(traced["rows"][name]) for name in TRAIN_LAYERS}
    wall = traced["wall_s"]
    out.values.update({name: seconds for name, (_, seconds) in rows.items()})
    out.values["train.unattributed_s"] = unattributed(
        wall, (seconds for _, seconds in rows.values()))
    # Kernel groups come from the profiled session (per-kernel timing
    # slows replay), as shares of its replay time, applied to the
    # traced session's replay time.
    replay = out.values["nn.compile.replay_s"]
    groups = profiled["op_groups"]
    kernels = {g: s for g, s in groups.items() if g != "other"}
    for group, seconds in kernels.items():
        out.values[f"nn.compile.replay.{group}_s"] = \
            replay * seconds / profiled["replay_s"]
    out.values["nn.compile.replay.other_s"] = \
        replay * (1.0 - sum(kernels.values()) / profiled["replay_s"])
    out.values["flow.cache_load_s"] = traced["cache_load_s"]
    out.values.update(traced["counts"])
    out.values["trace.wall_s"] = build_wall + wall
    out.values["trace.overhead_s"] = \
        build_wall + wall - build_plain - plain["wall_s"]
    out.lines.append(format_table(
        "train layers (traced job: construct + fit + save, self seconds)",
        wall, rows, "train.unattributed_s"))
    out.lines.append(
        "  replay by op kind (profiled session's shares of replay): "
        + ", ".join(f"{g} {out.values[f'nn.compile.replay.{g}_s']:.4f} s"
                    for g in (*OP_GROUPS, "other")))
    return out


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_setup(args):
    from prep import model_path
    from serve_load import design_cycle, load_designs, reference_answers

    models = [model_path("a"), model_path("b")]
    designs = load_designs()
    refs = reference_answers(designs, models, args.seed)
    order = design_cycle([d.name for d in designs], args.seed)
    return models, designs, refs, order


def check_load(out: Outcome, load, refs) -> None:
    from serve_load import check_samples

    checked, mismatched = check_samples(load, refs)
    out.attempted += len(load.replies) + len(load.reloads) \
        + len(load.errors)
    out.failed += len(load.errors) + mismatched
    out.check(not load.errors, f"serve: {len(load.errors)} errors, first "
                               f"{load.errors[:1]}")
    out.check(mismatched == 0,
              f"serve: {mismatched}/{checked} sampled responses differ "
              f"from the in-process engine")
    out.check(checked > 0, "serve: no response was checked")
    out.lines.append(f"serve: checked {checked} sampled responses "
                     f"({mismatched} mismatched)")


def serve(args, manifest) -> Outcome:
    from serve_load import rebuild_times, serve_session, setup_only_server

    out = Outcome()
    models, designs, refs, order = serve_setup(args)
    runs, setups = [], []
    for _ in range(SERVE_SESSIONS):
        setups += [setup_only_server(models)
                   for _ in range(EXTRA_SETUPS["serve"])]
        runs.append(serve_session(order, args.seed, models,
                                  args.seconds / (SERVE_SESSIONS + 1)))
        setups.append(runs[-1]["setup_s"])
    latencies, rebuilds = [], []
    requests = sweeps = 0
    window = 0.0
    for run in runs:
        load = run["load"]
        check_load(out, load, refs)
        lat_s = latency_summary(load.latencies())
        engine = run["stats"]["engine"]
        rate = len(load.replies) / load.window_s
        features = engine["features"]
        out.lines.append(
            f"  session: setup {run['setup_s']:.3f} s, rss "
            f"{run['peak_rss_mb']:.1f} MB, {rate:.1f} req/s, p50 "
            f"{lat_s['p50_ms']:.2f} ms, p99 {lat_s['p99_ms']:.2f} ms, "
            f"struct evictions {engine['structs']['evictions']}, feature "
            f"hits {features['hits']}/"
            f"{features['hits'] + features['misses']}")
        latencies += load.latencies()
        rebuilds += rebuild_times(load, len(designs))
        requests += len(load.replies)
        sweeps += run["stats"]["coalescer"]["batches"]
        window += load.window_s
    lat = latency_summary(latencies)
    out.check(lat["p99_beyond"] >= 10,
              f"serve: only {lat['count']} latency samples; p99 needs 10 "
              f"beyond it")
    out.check(len(rebuilds) > 0, "serve: no complete reload cycle")
    out.values = {
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "build_s": median(rebuilds) if rebuilds else 0.0,
        "steps_per_s": sweeps / window,
        "req_per_s": requests / window,
        "p50_ms": lat["p50_ms"],
        "p99_ms": lat["p99_ms"],
    }
    reloads = sum(len(r["load"].reloads) for r in runs)
    out.lines.append(
        f"serve: {SERVE_SESSIONS} server processes, {requests} requests, "
        f"{reloads} reloads, {sweeps} sweeps in {window:.2f} s; latency "
        f"samples {lat['count']} (p99 has {lat['p99_beyond']:.0f} beyond; "
        f"highest supported p{lat['tail_q']:g} = {lat['tail_ms']:.2f} ms); "
        f"{len(rebuilds)} reload cycles timed; set-ups "
        f"{[round(s, 3) for s in setups]} s")
    return out


def trace_serve(args, manifest) -> Outcome:
    from serve_load import SWEEP_LAYERS, inprocess_drive

    out = Outcome()
    models, designs, refs, order = serve_setup(args)
    plain = inprocess_drive(designs, order, args.seed, models,
                            TRACE_REQUESTS, traced=False)
    traced = inprocess_drive(designs, order, args.seed, models,
                             TRACE_REQUESTS, traced=True)
    for run in (plain, traced):
        check_load(out, run["load"], refs)
    tracer, ledger, load = traced["tracer"], traced["ledger"], \
        traced["load"]
    client = sum(load.latencies())
    handled = tracer.total("serve.predict")
    rows = {
        "serve.http_s": (len(load.replies), client - handled),
        "serve.handler_s": (tracer.calls("serve.predict"),
                            handled - ledger.wait_s - ledger.sweep_s),
        "serve.coalesce_wait_s": (0, ledger.wait_s),
    }
    for row, name in SWEEP_LAYERS.items():
        rows[row] = (tracer.calls(name), ledger.layers[row])
    out.values = {name: seconds for name, (_, seconds) in rows.items()}
    out.values["serve.unattributed_s"] = unattributed(
        client, out.values.values())
    features = traced["engine"]["features"]
    lookups = features["hits"] + features["misses"]
    reload_s = [end - start for start, end, _ in load.reloads]
    out.values.update({
        "serve.batch_size": traced["coalescer"]["mean_batch_size"],
        "infer.feature_hit_ratio": features["hits"] / lookups
        if lookups else 0.0,
        "infer.struct_evictions": traced["engine"]["structs"]["evictions"],
        "serve.reload_ms": 1e3 * sum(reload_s) / len(reload_s)
        if reload_s else 0.0,
        "infer.load_predictor_s": tracer.total("infer.load_predictor"),
        "trace.wall_s": load.window_s,
        "trace.overhead_s": load.window_s - plain["load"].window_s,
    })
    out.lines.append(format_table(
        f"serve layers (traced in-process server, {len(load.replies)} "
        f"requests, request-weighted self seconds)", client, rows,
        "serve.unattributed_s"))
    return out


WORKLOADS = {
    "train": (train, trace_train),
    "serve": (serve, trace_serve),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # Terminated, the generator still stops the processes it started:
    # SystemExit runs the ``finally`` blocks that close every session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not program_present():
        print("perfbench: no src/repro in this checkout; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(STATE.parent / "src"))
    from prep import ensure_prepared

    manifest = ensure_prepared()
    before = host_probe()
    out = WORKLOADS[args.workload][args.trace](args, manifest)
    probe = probe_delta(before, host_probe())
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(out.values.get(name, 0.0)),
                      "unit": unit} for name, unit in names.items()}
    for line in out.lines + [f"problem: {p}" for p in out.problems]:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"host probe (before, after): {json.dumps(probe)}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "time": time.time(), "probe": probe,
              "metrics": {n: m["value"] for n, m in metrics.items()}}
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": not out.problems and out.failed == 0,
                      "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
