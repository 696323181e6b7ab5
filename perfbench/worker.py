"""Session process of the ``train`` workload, and of the cold flow build
(``flow_build``) that a traced ``train`` run adds.

Started by the generator (``run.py``), one process per session::

    python3 perfbench/worker.py flow_build --seed 3 --mode plain
    python3 perfbench/worker.py train --seed 3 --mode traced

It prints a ``ready`` protocol line once set-up is done (imports, and
for ``train`` the dataset load from the pre-built cache), then runs one
job and prints a ``result`` line.  ``train --mode setup`` stops after
the ready line, so the generator can sample set-up time more often than
it runs jobs.  ``--mode traced`` wraps the layers' public functions (see
:mod:`tracer`); ``--mode profiled`` turns on the compiled step's
per-kernel timing instead.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import shutil
import time
from pathlib import Path

from common import STATE, emit, peak_rss_mb
from tracer import Patches, Tracer, layer_rows

#: Optimizer steps of one training job (default TrainConfig otherwise).
TRAIN_STEPS = 40

FLOW_LAYERS = {
    "netlist.synthesize_s": ["netlist.synthesize"],
    "place.place_s": ["place.place"],
    "route.estimate_s": ["route.estimate"],
    "sta.preroute_s": ["sta.preroute"],
    "features.encode_s": ["features.encode"],
    "features.images_s": ["features.images"],
    "features.cones_s": ["features.cones"],
    "opt.optimize_s": ["opt.optimize"],
    "route.route_s": ["route.route"],
    "sta.signoff_s": ["sta.signoff"],
    "flow.cache_store_s": ["flow.cache_store"],
}

TRAIN_LAYERS = {
    "model.init_s": ["model.init"],
    "train.init_s": ["train.init"],
    "nn.compile.trace_s": ["nn.compile.trace", "nn.compile.build"],
    "nn.compile.replay_s": ["nn.compile.replay"],
    "nn.optim.clip_s": ["nn.optim.clip"],
    "nn.optim.adam_s": ["nn.optim.adam"],
    "train.step_self_s": ["train.step"],
    "train.validate_s": ["train.validate"],
    "model.priors_s": ["model.priors"],
    "infer.save_s": ["infer.save"],
}

#: Compiled kernels (``repro.nn.compile.KERNELS``) grouped by op kind,
#: for the ``profile_ops`` rows.  The groups are kinds of op, not
#: sub-networks: the GNN, the CNN and the loss all run elementwise ops.
#: ``other`` is replay time outside any kernel (and any kernel not
#: listed here).
OP_GROUPS = {
    "conv": ("conv2d", "max_pool2d", "avg_pool2d"),
    "graph": ("levelized_sweep", "gather_rows", "scatter_add_rows"),
    "matmul": ("matmul",),
    "elementwise": ("add", "mul", "neg", "truediv", "pow", "sum", "max",
                    "relu", "tanh", "sigmoid", "exp", "log", "softplus",
                    "abs", "clip", "log_softmax", "where"),
    "layout": ("reshape", "transpose", "getitem", "concatenate", "stack"),
}


def table1_names():
    """The 10-design Table-1 set: 5 train + 5 test designs."""
    from repro.netlist import TEST_SPLIT, TRAIN_SPLIT

    return list(TRAIN_SPLIT.items()) + [(n, "7nm") for n in TEST_SPLIT]


def set_digest(designs) -> str:
    """Order-independent digest of a design set's model inputs."""
    h = hashlib.blake2b(digest_size=12)
    for key in sorted(f"{d.name}@{d.node}:{d.content_digest()}"
                      for d in designs):
        h.update(key.encode("ascii"))
    return h.hexdigest()


def scratch_dir(kind: str) -> Path:
    path = STATE / "tmp" / f"{kind}-{random.SystemRandom().getrandbits(48):x}"
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# flow_build
# ----------------------------------------------------------------------
def install_flow_layers(patches: Patches) -> None:
    """Wrap the flow layers as ``repro.flow.pnr`` and the cache see them."""
    from repro.flow import cache, pnr
    from repro.route.estimator import PreRouteEstimator

    def sta_name(netlist, parasitics, *args, **kwargs) -> str:
        return "sta.preroute" if isinstance(parasitics, PreRouteEstimator) \
            else "sta.signoff"

    for attr in ("make_design", "map_design"):
        patches.wrap(pnr, attr, "netlist.synthesize")
    for attr in ("place_design", "derive_constraints"):
        patches.wrap(pnr, attr, "place.place")
    patches.wrap_constructor(
        pnr, "PreRouteEstimator", "route.estimate",
        methods=("estimated_length", "net_load", "wire_delay",
                 "slew_degradation"))
    patches.wrap(pnr, "run_sta", "", name_of=sta_name)
    patches.wrap(pnr, "encode_netlist", "features.encode")
    patches.wrap(pnr, "layout_images", "features.images")
    for attr in ("fanin_cone", "cone_mask"):
        patches.wrap(pnr, attr, "features.cones")
    patches.wrap(pnr, "optimize_design", "opt.optimize")
    patches.wrap(pnr, "route_design", "route.route")
    patches.wrap(cache.FlowCache, "store", "flow.cache_store")


def run_flow_build(seed: int, mode: str) -> None:
    from repro.flow import build_designs, pnr  # noqa: F401 - set-up cost

    names = table1_names()
    emit("ready")
    out = scratch_dir("build")
    tracer = Tracer()
    try:
        with Patches(tracer) as patches:
            if mode == "traced":
                install_flow_layers(patches)
            start = time.perf_counter()
            with tracer.span("flow.build"):
                designs = build_designs(names, workers=1, cache_dir=out)
            wall = time.perf_counter() - start
        rss = peak_rss_mb()
        reloaded = build_designs(names, workers=1, cache_dir=out)
        cache_bytes = sum(p.stat().st_size for p in out.glob("*.npz"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {
        "wall_s": wall,
        "designs": len(designs),
        "digest": set_digest(designs),
        "reload_digest": set_digest(reloaded),
        "peak_rss_mb": rss,
        "counts": {
            "flow.pins": sum(int(d.graph.features.shape[0])
                             for d in designs),
            "flow.endpoints": sum(d.num_endpoints for d in designs),
            "opt.cells_upsized": sum(int(d.flow_info["cells_upsized"])
                                     for d in designs),
            "opt.buffers_inserted": sum(
                int(d.flow_info["buffers_inserted"]) for d in designs),
            "flow.cache_bytes": cache_bytes,
        },
    }
    if mode == "traced":
        rows = layer_rows(tracer, FLOW_LAYERS)
        result["rows"] = rows
        result["counts"]["features.cones_calls"] = \
            tracer.calls("features.cones")
    emit("result", **result)


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def install_train_layers(patches: Patches) -> None:
    """Wrap the training layers as ``repro.train.trainer`` sees them."""
    from repro.model import predictor
    from repro.nn import compile as compile_mod
    from repro.nn import optim
    from repro.train import selection
    from repro.train import trainer as trainer_mod

    patches.wrap_context(trainer_mod, "trace", "nn.compile.trace")
    patches.wrap(trainer_mod, "CompiledStep", "nn.compile.build")
    patches.wrap(compile_mod.CompiledStep, "replay", "nn.compile.replay")
    patches.wrap(optim.Adam, "clip_grad_norm", "nn.optim.clip")
    patches.wrap(optim.Adam, "step", "nn.optim.adam")
    patches.wrap(trainer_mod.OursTrainer, "step", "train.step")
    patches.wrap(selection.HoldoutSelector, "validate", "train.validate")
    patches.wrap(predictor.TimingPredictor, "finalize_node_priors",
                 "model.priors")


def op_group_seconds(timings) -> dict:
    """Profiled kernel seconds grouped by op kind (``other`` = rest)."""
    groups = {name: 0.0 for name in (*OP_GROUPS, "other")}
    for key, entry in timings.items():
        if not key.startswith("op."):
            continue
        op = key.split(".", 2)[2]
        group = next((g for g, ops in OP_GROUPS.items() if op in ops),
                     "other")
        groups[group] += entry["seconds"]
    return groups


def run_train(seed: int, mode: str) -> None:
    import numpy as np

    from repro.experiments import build_dataset
    from repro.infer import save_predictor, weight_digest
    from repro.model import TimingPredictor
    from repro.train import OursTrainer, TrainConfig, r2_score
    from repro.util import get_timings, reset_timings

    start = time.perf_counter()
    dataset = build_dataset(cache_dir=STATE / "designs")
    cache_load = time.perf_counter() - start
    emit("ready")
    if mode == "setup":
        return
    out = scratch_dir("train")
    tracer = Tracer()
    try:
        with Patches(tracer) as patches:
            if mode == "traced":
                install_train_layers(patches)
            reset_timings()
            start = time.perf_counter()
            with tracer.span("train.job"):
                with tracer.span("model.init"):
                    model = TimingPredictor(dataset.in_features, seed=seed)
                with tracer.span("train.init"):
                    trainer = OursTrainer(
                        model, dataset.train,
                        TrainConfig(steps=TRAIN_STEPS, seed=seed))
                trainer.profile_ops = mode == "profiled"
                history = trainer.fit()
                with tracer.span("infer.save"):
                    save_predictor(model, out / "model.npz")
            wall = time.perf_counter() - start
        rss = peak_rss_mb()
        timings = get_timings()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    losses = hashlib.blake2b(digest_size=12)
    for record in history:
        for part in ("total", "elbo", "contrastive", "cmd"):
            losses.update(repr(record[part]).encode("ascii"))
    r2 = [float(r2_score(d.labels, model.predict(d))) for d in dataset.test]
    final = history[-1]
    result = {
        "wall_s": wall,
        "cache_load_s": cache_load,
        "steps": len(history),
        "step_s": [r["step_seconds"] for r in history],
        "loss_digest": losses.hexdigest(),
        "weight_digest": weight_digest(model),
        "final_losses": {k: final[k] for k in
                         ("total", "elbo", "contrastive", "cmd")},
        "test_r2": r2,
        "r2_finite": bool(np.all(np.isfinite(r2))),
        "peak_rss_mb": rss,
        "counts": {"train.programs": len(trainer._programs),
                   "train.retraces": trainer.retraces},
    }
    if mode == "traced":
        result["rows"] = layer_rows(tracer, TRAIN_LAYERS)
        result["counts"]["train.validations"] = \
            tracer.calls("train.validate")
    if mode == "profiled":
        result["op_groups"] = op_group_seconds(timings)
        result["replay_s"] = timings.get("train.replay",
                                         {"seconds": 0.0})["seconds"]
    emit("result", **result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("flow_build", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "setup", "traced", "profiled"))
    args = parser.parse_args(argv)
    if args.workload == "flow_build":
        run_flow_build(args.seed, args.mode)
    else:
        run_train(args.seed, args.mode)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
