"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli flow DESIGN NODE       # run the PnR flow, report
    python -m repro.cli sta DESIGN NODE        # worst-path timing report
    python -m repro.cli libs                   # library summaries
    python -m repro.cli train [--steps N]      # train ours, report test R^2
    python -m repro.cli ladder [--nodes ...]   # K-node transfer study
    python -m repro.cli predict DESIGN...      # serve predictions (fast path)
    python -m repro.cli serve [--port N]       # resident prediction server
    python -m repro.cli report-run RUNDIR      # render a run's telemetry
    python -m repro.cli experiments [NAMES]    # regenerate tables/figures
    python -m repro.cli check [PATHS]          # static lint + autograd audit
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

#: Subcommands whose module parses its own arguments: ``repro NAME
#: ARGS...`` runs ``MODULE.main(ARGS)``, as ``python -m MODULE ARGS...``
#: does, so each has one argument surface and ``repro`` imports none of
#: them to build its parser.
DELEGATED = {
    "check": ("repro.check.cli",
              "repo-specific static lint + autograd audit"),
    "experiments": ("repro.experiments.runner",
                    "regenerate the paper's tables/figures"),
    "serve": ("repro.serve.__main__",
              "resident prediction server with request coalescing and "
              "model hot-reload"),
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. --build-workers)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def add_build_arguments(parser: argparse.ArgumentParser) -> None:
    """The dataset-build flags of every command that builds one."""
    parser.add_argument("--build-workers", type=_positive_int, default=1,
                        metavar="N",
                        help="processes for cold dataset builds")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk design cache")


def _libraries():
    """The paper's two nodes, label -> library."""
    from .techlib import ANCHOR_NMS, NodeLadder

    return NodeLadder(ANCHOR_NMS).libraries()


def _parse_node_token(token: str) -> float:
    """CLI node token -> feature size in nm.

    Accepts anchor names (``sky130``, ``asap7``), labels (``130nm``,
    ``45p2nm``) and bare sizes (``130``, ``45.2``).
    """
    aliases = {"sky130": 130.0, "asap7": 7.0}
    text = token.strip().lower()
    if text in aliases:
        return aliases[text]
    if text.endswith("nm"):
        text = text[:-2]
    try:
        return float(text.replace("p", "."))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a technology node: {token!r} (use sky130/asap7, a "
            "label like 45nm, or a size in nm)") from None


def cmd_libs(args) -> int:
    for node, lib in _libraries().items():
        stats = lib.stats()
        print(f"{node}: {lib.name} — {int(stats['num_cells'])} cells, "
              f"{int(stats['num_functions'])} functions, "
              f"mean input cap {stats['mean_input_cap'] * 1e3:.3f} fF, "
              f"clock {lib.default_clock_period} ns")
    return 0


def cmd_flow(args) -> int:
    from .features import GateVocabulary
    from .flow import run_flow

    libraries = _libraries()
    vocab = GateVocabulary(list(libraries.values()))
    data = run_flow(args.design, args.node, libraries, vocab=vocab)
    print(f"{data.name}@{data.node}: {data.stats()}")
    print(f"clock period {data.clock_period:.4f} ns")
    for key, value in data.flow_info.items():
        print(f"  {key}: {value:.4f}")
    print(f"signoff AT: mean {data.labels.mean():.4f} ns, "
          f"max {data.labels.max():.4f} ns over "
          f"{data.num_endpoints} endpoints")
    return 0


def cmd_sta(args) -> int:
    from .netlist import make_design, map_design
    from .place import place_design
    from .route import PreRouteEstimator, route_design
    from .sta import report_worst_paths, run_sta

    library = _libraries()[args.node]
    netlist = map_design(make_design(args.design), library)
    floorplan = place_design(netlist, seed=args.seed)
    if args.routed:
        parasitics = route_design(netlist, floorplan, seed=args.seed)
    else:
        parasitics = PreRouteEstimator(netlist)
    report = run_sta(netlist, parasitics)
    print(f"WNS {report.wns:+.4f} ns   TNS {report.tns:+.4f} ns   "
          f"clock {report.clock.period:.4f} ns\n")
    print(report_worst_paths(netlist, parasitics, n=args.paths,
                             report=report))
    return 0


def _install_stop_handlers(trainer, state):
    """Wire SIGINT/SIGTERM to a graceful stop at the next step boundary.

    The first signal asks the trainer to finish the in-flight step,
    write a final checkpoint and return; a second signal force-quits.
    Returns the displaced handlers so the caller can restore them.
    """
    import signal

    def handler(signum, frame):
        if state.get("signum") is not None:
            raise KeyboardInterrupt(
                f"second signal {signum}; aborting without checkpoint")
        state["signum"] = int(signum)
        trainer.request_stop()
        print(f"\nsignal {signum}: finishing the current step, writing "
              "a checkpoint, then exiting (signal again to force-quit)")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    return previous


def cmd_train(args) -> int:
    import signal

    from .experiments import build_dataset
    from .experiments.datasets import DATASET_SCALE
    from .model import TimingPredictor
    from .obs import RunLogger, default_run_dir
    from .techlib import NodeLadder, label_to_nm, node_label
    from .train import (
        CHECKPOINT_NAME,
        OursTrainer,
        TrainConfig,
        load_checkpoint,
        r2_score,
    )
    from .util import get_timings, reset_timings, timing_report

    # The timing registry feeds the run summary, so scope it to this
    # run: dataset-build phases (including worker-process phases merged
    # back by build_designs) and training phases both land in it.
    reset_timings()
    checkpoint = None
    if args.resume:
        # Resume: the checkpoint's TrainConfig is the source of truth —
        # a resumed run must re-execute the original one bit-for-bit,
        # so --steps/--seed/... on the resume invocation are ignored.
        run_dir = Path(args.resume)
        checkpoint = load_checkpoint(run_dir / CHECKPOINT_NAME)
        config = TrainConfig(**checkpoint.config)
        # A ladder run's node chain lives in the config; rebuild the
        # same libraries from the labels.
        ladder = NodeLadder([label_to_nm(lbl) for lbl in config.nodes]) \
            if config.nodes is not None else None
        print(f"resuming {run_dir} from checkpoint at step "
              f"{checkpoint.step}/{config.steps}")
    else:
        run_dir = Path(args.run_dir) if args.run_dir \
            else default_run_dir(tag=args.tag)
        ladder = None
        nodes = None
        target_node = "7nm"
        if args.nodes:
            ladder = NodeLadder([_parse_node_token(t)
                                 for t in args.nodes])
            nodes = ladder.node_labels
            target_node = ladder.target_label if args.target_node is None \
                else node_label(_parse_node_token(args.target_node))
        elif args.target_node is not None:
            raise SystemExit("--target-node requires --nodes")
        config = TrainConfig(steps=args.steps, seed=args.seed,
                             compile=not args.no_compile,
                             dtype=args.dtype,
                             checkpoint_every=args.checkpoint_every,
                             nodes=nodes, target_node=target_node)
    with RunLogger(run_dir, resume=checkpoint is not None,
                   resume_step=None if checkpoint is None
                   else checkpoint.step) as logger:
        dataset = build_dataset(ladder, target_label=config.target_node,
                                workers=args.build_workers,
                                use_cache=not args.no_cache,
                                cache_dir=args.cache_dir)
        if checkpoint is None:
            extra = {"dataset": {"scale": DATASET_SCALE["scale"],
                                 "resolution":
                                     DATASET_SCALE["resolution"],
                                 "workers": args.build_workers,
                                 "use_cache": not args.no_cache}}
            if ladder is not None:
                extra["ladder"] = {"spec": ladder.spec,
                                   "target_node": config.target_node,
                                   "nodes": ladder.describe()}
            logger.log_manifest(
                config=config,
                seeds={"model": args.seed, "train": config.seed,
                       "data": DATASET_SCALE["seed"]},
                extra=extra,
            )
        else:
            logger.annotate_manifest(interrupted=False,
                                     resumed_from_step=checkpoint.step)
        model_seed = config.seed if checkpoint is not None else args.seed
        model = TimingPredictor(dataset.in_features, seed=model_seed)
        trainer = OursTrainer(model, dataset.train, config, logger=logger)
        trainer.profile_ops = bool(args.profile)
        if checkpoint is not None:
            trainer.load_checkpoint(run_dir / CHECKPOINT_NAME)
        else:
            print(f"training ours for {config.steps} steps ...")

        sig_state: dict = {}
        previous_handlers = _install_stop_handlers(trainer, sig_state)
        try:
            history = trainer.fit()
        finally:
            for sig, old in previous_handlers.items():
                signal.signal(sig, old)

        step_seconds = np.array([h["step_seconds"] for h in history])
        if trainer.interrupted:
            # Graceful shutdown: the final checkpoint is already on
            # disk (fit wrote it before returning); leave a schema-valid
            # summary and an interrupted marker, then exit nonzero so
            # schedulers see the run as incomplete.
            done = trainer._start_step
            logger.log_summary(
                steps=len(history),
                total_seconds=float(step_seconds.sum()),
                interrupted=True,
                timings=get_timings(),
            )
            logger.annotate_manifest(interrupted=True,
                                     interrupted_at_step=done)
            print(f"interrupted after step {done}/{config.steps}; "
                  f"checkpoint + telemetry in {run_dir}")
            print(f"continue with `repro train --resume {run_dir}`")
            return 128 + sig_state["signum"] if "signum" in sig_state \
                else 1
        print(f"  {len(history)} steps, "
              f"{step_seconds.mean():.3f} s/step "
              f"({step_seconds.sum():.1f} s total)")
        per_design = {}
        scores = []
        for design in dataset.test:
            r2 = r2_score(design.labels, model.predict(design))
            scores.append(r2)
            per_design[design.name] = {"r2": float(r2)}
            print(f"  {design.name:>10}: R^2 = {r2:.3f}")
        print(f"  {'average':>10}: R^2 = {np.mean(scores):.3f}")
        summary_fields = {}
        if ladder is not None:
            per_node = {}
            for record in ladder.describe():
                label = record["label"]
                per_node[label] = {
                    **record,
                    "role": "target" if label == config.target_node
                    else "source",
                    "num_train_designs": sum(
                        1 for d in dataset.train if d.node == label),
                }
            per_node[config.target_node]["test_mean_r2"] = \
                float(np.mean(scores))
            logger.annotate_manifest(per_node=per_node)
            summary_fields["per_node"] = per_node
        logger.log_summary(
            steps=len(history),
            total_seconds=float(step_seconds.sum()),
            mean_r2=float(np.mean(scores)),
            per_design=per_design,
            final_weights=trainer.final_weights_source,
            timings=get_timings(),
            **summary_fields,
        )
        if checkpoint is not None:
            logger.annotate_manifest(interrupted=False)
    if args.save_model:
        from .infer import save_predictor

        save_predictor(model, args.save_model)
        print(f"serving checkpoint written to {args.save_model} "
              f"(use with `repro predict --model`)")
    print(f"run telemetry written to {run_dir} "
          f"(render with `repro report-run {run_dir}`)")
    if args.profile:
        print("\nphase timings:")
        print(timing_report())
    return 0


def load_or_train(args, dataset):
    """The model `predict` and `serve` run: ``--model`` loaded for the
    dataset's input width (None, after printing why, if it is refused),
    or a model trained for ``--train-steps``."""
    if args.model:
        from .infer import load_predictor
        from .nn import CheckpointError

        try:
            return load_predictor(args.model,
                                  in_features=dataset.in_features)
        except CheckpointError as exc:
            print(exc)
            return None
    from .model import TimingPredictor
    from .train import OursTrainer, TrainConfig

    print(f"no --model given; training for {args.train_steps} steps ...")
    model = TimingPredictor(dataset.in_features, seed=args.seed)
    OursTrainer(model, dataset.train,
                TrainConfig(steps=args.train_steps, seed=args.seed)).fit()
    return model


def cmd_predict(args) -> int:
    from .experiments import build_dataset
    from .infer import InferenceEngine
    from .train import r2_score
    from .util import reset_timings, timing_report

    reset_timings()
    dataset = build_dataset(workers=args.build_workers,
                            use_cache=not args.no_cache,
                            cache_dir=args.cache_dir)
    try:
        designs = [dataset.by_name(name) for name in args.designs]
    except KeyError as exc:
        known = ", ".join(sorted(d.name
                                 for d in dataset.train + dataset.test))
        print(f"unknown design {exc.args[0]!r}; choose from: {known}")
        return 1

    model = load_or_train(args, dataset)
    if model is None:
        return 1
    mc_samples = args.mc_samples
    if args.uncertainty and mc_samples <= 0:
        mc_samples = 16
    engine = InferenceEngine(model)
    for _ in range(max(1, args.repeat)):
        results = engine.predict_many(designs, mc_samples=mc_samples,
                                      with_uncertainty=args.uncertainty,
                                      seed=args.seed)
    for design in designs:
        pred = results[design.name]
        r2 = r2_score(design.labels, pred.mean)
        line = (f"{design.name:>12}@{design.node}: "
                f"{pred.num_endpoints} endpoints, "
                f"mean AT {pred.mean.mean():.4f} ns, "
                f"max AT {pred.mean.max():.4f} ns, R^2 {r2:.3f}")
        if pred.std is not None:
            line += f", mean std {pred.std.mean():.4f} ns"
        print(line)
    stats = engine.cache_stats()
    print(f"feature cache: {stats['hits']} hits, {stats['misses']} "
          f"misses, {stats['entries']} entries")
    if args.profile:
        print("\nphase timings:")
        print(timing_report())
    return 0


def cmd_report_run(args) -> int:
    from .obs import render_run

    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"not a run directory: {run_dir}")
        return 1
    print(render_run(run_dir, diff_against=args.diff))
    return 0


def cmd_ladder(args) -> int:
    from .experiments import format_ladder_study, run_ladder_study
    from .obs import RunLogger, default_run_dir
    from .techlib import NodeLadder
    from .util import reset_timings

    reset_timings()
    ladder = NodeLadder([_parse_node_token(t) for t in args.nodes],
                        perturb_gate_mix=args.perturb_gate_mix,
                        seed=args.lib_seed)
    run_dir = Path(args.run_dir) if args.run_dir \
        else default_run_dir(tag="ladder")
    print(f"ladder study over {ladder!r} "
          f"(target {ladder.target_label}) ...")
    with RunLogger(run_dir) as logger:
        logger.log_manifest(
            config=None, seeds={"train": args.seed},
            extra={"ladder": {"spec": ladder.spec,
                              "nodes": ladder.describe()}})
        results = run_ladder_study(
            ladder=ladder, steps=args.steps, seed=args.seed,
            resolution=args.resolution, workers=args.build_workers,
            use_cache=not args.no_cache, cache_dir=args.cache_dir,
            include_loo=not args.no_loo,
            include_reverse=args.reverse, logger=logger)
    print(format_ladder_study(results))
    print(f"run telemetry written to {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("libs", help="summarise the technology libraries")

    p = sub.add_parser("flow", help="run one design through the flow")
    p.add_argument("design")
    p.add_argument("node", choices=["130nm", "7nm"])

    p = sub.add_parser("sta", help="timing report for one design")
    p.add_argument("design")
    p.add_argument("node", choices=["130nm", "7nm"])
    p.add_argument("--routed", action="store_true",
                   help="use routed parasitics instead of estimates")
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train the paper's model")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", nargs="+", default=None, metavar="NODE",
                   help="technology nodes to train across: anchors by "
                        "name or size (sky130/130/130nm, asap7/7/7nm) "
                        "plus interpolated sizes strictly between 7 and "
                        "130, e.g. `--nodes 130 45 7`.  Default: the "
                        "paper's two-node setting; `--nodes sky130 "
                        "asap7` is bit-identical to it")
    p.add_argument("--target-node", default=None, metavar="NODE",
                   help="transfer target node (default: the smallest "
                        "of --nodes); requires --nodes")
    add_build_arguments(p)
    p.add_argument("--cache-dir", default=None,
                   help="design cache root (default $REPRO_CACHE_DIR)")
    p.add_argument("--no-compile", action="store_true",
                   help="run the training step eagerly instead of the "
                        "trace-once/replay compiled schedule "
                        "(bit-identical results, slower)")
    p.add_argument("--dtype", choices=["float64", "float32"],
                   default="float64",
                   help="numeric precision of the compiled step "
                        "(float32 is faster but not bit-exact; "
                        "requires compilation)")
    p.add_argument("--profile", action="store_true",
                   help="print per-phase and per-kernel timing totals "
                        "after training")
    p.add_argument("--run-dir", default=None,
                   help="telemetry directory for this run "
                        "(default runs/<timestamp>-<tag>/)")
    p.add_argument("--tag", default="train",
                   help="suffix for the default run directory name")
    p.add_argument("--save-model", default=None, metavar="PATH",
                   help="write a serving checkpoint (weights + node "
                        "population) for `repro predict --model`")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   metavar="N",
                   help="write a crash-resume checkpoint every N steps "
                        "(0 disables periodic checkpoints; a graceful "
                        "SIGINT/SIGTERM stop always writes one)")
    p.add_argument("--resume", default=None, metavar="RUNDIR",
                   help="continue an interrupted run from "
                        "RUNDIR/checkpoint.npz (reuses the original "
                        "TrainConfig; ignores --steps/--seed/...)")

    p = sub.add_parser("predict",
                       help="serve predictions via the fast "
                            "inference engine")
    p.add_argument("designs", nargs="+", metavar="DESIGN",
                   help="design names from the experiment dataset")
    p.add_argument("--model", default=None, metavar="PATH",
                   help="serving checkpoint from `repro train "
                        "--save-model` (default: train from scratch)")
    p.add_argument("--train-steps", type=int, default=150,
                   help="training steps when no --model is given")
    p.add_argument("--uncertainty", action="store_true",
                   help="also report per-endpoint predictive std")
    p.add_argument("--mc-samples", type=int, default=0,
                   help="Monte-Carlo prior samples (0 = prior mean)")
    p.add_argument("--repeat", type=int, default=1,
                   help="repeat the prediction pass (cache warm-up "
                        "demo / profiling)")
    p.add_argument("--seed", type=int, default=0)
    add_build_arguments(p)
    p.add_argument("--cache-dir", default=None,
                   help="design cache root (default $REPRO_CACHE_DIR)")
    p.add_argument("--profile", action="store_true",
                   help="print per-phase timing totals")

    p = sub.add_parser("report-run",
                       help="render a training run's telemetry")
    p.add_argument("run_dir", help="run directory written by `train`")
    p.add_argument("--diff", default=None, metavar="OTHER_RUN",
                   help="also diff the manifest against another run dir")

    # Listed for `repro --help` only: main() hands their arguments to
    # the module's own parser.
    for name, (_, text) in DELEGATED.items():
        sub.add_parser(name, help=text, add_help=False)

    p = sub.add_parser("ladder",
                       help="K-node transfer study over a synthetic "
                            "node ladder")
    p.add_argument("--nodes", nargs="+", default=["130", "45", "7"],
                   metavar="NODE",
                   help="chain of nodes, anchors by name/size plus "
                        "interpolated sizes (default: 130 45 7)")
    p.add_argument("--steps", type=int, default=None,
                   help="training steps per run (default: the paper "
                        "config's)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=int, default=None,
                   help="layout image resolution override")
    p.add_argument("--perturb-gate-mix", action="store_true",
                   help="give interpolated nodes a seeded, genuinely "
                        "different gate mix")
    p.add_argument("--lib-seed", type=int, default=0,
                   help="seed of the gate-mix perturbation")
    p.add_argument("--no-loo", action="store_true",
                   help="skip the leave-one-node-out retrains")
    p.add_argument("--reverse", action="store_true",
                   help="also run reverse transfer (target at the "
                        "largest node)")
    add_build_arguments(p)
    p.add_argument("--cache-dir", default=None,
                   help="design cache root (default $REPRO_CACHE_DIR)")
    p.add_argument("--run-dir", default=None,
                   help="telemetry directory for this study "
                        "(default runs/<timestamp>-ladder/)")
    return parser


COMMANDS = {
    "libs": cmd_libs,
    "report-run": cmd_report_run,
    "flow": cmd_flow,
    "sta": cmd_sta,
    "train": cmd_train,
    "ladder": cmd_ladder,
    "predict": cmd_predict,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in DELEGATED:
        module = importlib.import_module(DELEGATED[argv[0]][0])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
