"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli flow DESIGN NODE       # run the PnR flow, report
    python -m repro.cli sta DESIGN NODE        # worst-path timing report
    python -m repro.cli export DESIGN NODE DIR # write .v/.def/.spef/.lib
    python -m repro.cli report DESIGN NODE     # design/timing/power report
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
from pathlib import Path

import numpy as np


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (e.g. --workers)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def _libraries():
    from .experiments import make_libraries

    return make_libraries()


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


def cmd_export(args) -> int:
    from .io import write_def, write_liberty, write_spef, write_verilog
    from .netlist import make_design, map_design
    from .place import place_design
    from .route import GlobalRouter

    library = _libraries()[args.node]
    netlist = map_design(make_design(args.design), library)
    floorplan = place_design(netlist, seed=args.seed)
    router = GlobalRouter(netlist, floorplan, seed=args.seed)
    router.run()

    out = Path(args.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.design}.v").write_text(write_verilog(netlist))
    (out / f"{args.design}.def").write_text(write_def(netlist, floorplan))
    (out / f"{args.design}.spef").write_text(write_spef(netlist, router))
    (out / f"{library.name}.lib").write_text(write_liberty(library))
    print(f"wrote {args.design}.v/.def/.spef and {library.name}.lib "
          f"to {out}")
    return 0


def cmd_report(args) -> int:
    from .analysis import estimate_power, full_report
    from .netlist import make_design, map_design
    from .place import place_design
    from .route import GlobalRouter, PreRouteEstimator, RoutedParasitics
    from .sta import MonteCarloSTA, format_statistical_report, run_sta

    library = _libraries()[args.node]
    netlist = map_design(make_design(args.design), library)
    floorplan = place_design(netlist, seed=args.seed)
    router = GlobalRouter(netlist, floorplan, seed=args.seed)
    router.run()
    parasitics = RoutedParasitics(router)
    report = run_sta(netlist, parasitics)
    print(full_report(netlist, floorplan, report, router))
    print()
    print(estimate_power(netlist, parasitics,
                         clock_period=report.clock.period).format())
    if args.mc_samples:
        print()
        stat = MonteCarloSTA(netlist, parasitics,
                             seed=args.seed).run_samples(args.mc_samples)
        print(format_statistical_report(stat, report.clock.period))
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

    from .experiments import build_dataset, build_ladder_dataset
    from .experiments.datasets import DATASET_SCALE
    from .model import TimingPredictor
    from .obs import RunLogger, default_run_dir
    from .techlib import NodeLadder, label_to_nm, node_label
    from .train import (
        CHECKPOINT_NAME,
        OursTrainer,
        ParallelTrainer,
        TrainConfig,
        load_checkpoint,
        r2_score,
        resolve_worker_count,
        split_by_node,
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
        if ladder is not None:
            dataset = build_ladder_dataset(
                ladder, target_label=config.target_node,
                workers=args.build_workers,
                use_cache=not args.no_cache, cache_dir=args.cache_dir)
        else:
            dataset = build_dataset(workers=args.build_workers,
                                    use_cache=not args.no_cache,
                                    cache_dir=args.cache_dir)
        # Training parallelism is an execution choice, not part of the
        # training config: any --workers value resumes any checkpoint
        # (the parent owns every RNG draw and the optimizer state), so
        # --workers stays live on --resume invocations too.  Bit-exact
        # continuation of a parallel run needs the original count.
        workers = args.workers
        if workers is not None:
            source, target = split_by_node(dataset.train,
                                           target_node=config.target_node)
            workers, notes = resolve_worker_count(
                workers, n_source=len(source), n_target=len(target))
            for note in notes:
                print(f"warning: {note}")
        if checkpoint is None:
            extra = {"dataset": {"scale": DATASET_SCALE["scale"],
                                 "resolution":
                                     DATASET_SCALE["resolution"],
                                 "workers": args.build_workers,
                                 "use_cache": not args.no_cache},
                     "parallel": {"workers": workers}}
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
        if workers is not None:
            trainer = ParallelTrainer(model, dataset.train, config,
                                      logger=logger, workers=workers)
        else:
            trainer = OursTrainer(model, dataset.train, config,
                                  logger=logger)
        trainer.profile_ops = bool(args.profile)
        if checkpoint is not None:
            trainer.load_checkpoint(run_dir / CHECKPOINT_NAME)
        else:
            suffix = "" if workers is None \
                else f" across {workers} worker process(es)"
            print(f"training ours for {config.steps} steps{suffix} ...")

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


def cmd_predict(args) -> int:
    from .experiments import build_dataset
    from .infer import InferenceEngine, load_predictor
    from .train import r2_score
    from .util import reset_timings, timing_report

    reset_timings()
    dataset = build_dataset(workers=args.workers,
                            use_cache=not args.no_flow_cache,
                            cache_dir=args.cache_dir)
    try:
        designs = [dataset.by_name(name) for name in args.designs]
    except KeyError as exc:
        known = ", ".join(sorted(d.name
                                 for d in dataset.train + dataset.test))
        print(f"unknown design {exc.args[0]!r}; choose from: {known}")
        return 1

    if args.model:
        model = load_predictor(args.model)
        if model.init_config["in_features"] != dataset.in_features:
            print(f"checkpoint expects {model.init_config['in_features']}"
                  f" input features, dataset has {dataset.in_features}")
            return 1
    else:
        from .model import TimingPredictor
        from .train import OursTrainer, TrainConfig

        print(f"no --model given; training for {args.train_steps} "
              f"steps ...")
        model = TimingPredictor(dataset.in_features, seed=args.seed)
        trainer = OursTrainer(
            model, dataset.train,
            TrainConfig(steps=args.train_steps, seed=args.seed))
        trainer.fit()

    mc_samples = args.mc_samples
    if args.uncertainty and mc_samples <= 0:
        mc_samples = 16
    engine = InferenceEngine(model, use_cache=not args.no_cache)
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


def cmd_serve(args) -> int:
    from .serve.__main__ import run_from_args

    return run_from_args(args)


def cmd_report_run(args) -> int:
    from .obs import render_run

    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"not a run directory: {run_dir}")
        return 1
    print(render_run(run_dir, diff_against=args.diff))
    return 0


def cmd_check(args) -> int:
    from .check.cli import run_check

    return run_check(paths=args.paths, fmt=args.format,
                     do_lint=not args.no_lint,
                     do_gradcheck=not args.no_gradcheck,
                     do_dataflow=args.dataflow,
                     diff_baseline=args.diff_baseline,
                     write_baseline_file=args.write_baseline,
                     baseline=args.baseline,
                     list_rules=args.list_rules)


def cmd_experiments(args) -> int:
    from .experiments.runner import run_all

    run_all(args.names or None, seed=args.seed, steps=args.steps,
            workers=args.workers, use_cache=not args.no_cache)
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

    p = sub.add_parser("export", help="write .v/.def/.spef/.lib files")
    p.add_argument("design")
    p.add_argument("node", choices=["130nm", "7nm"])
    p.add_argument("directory")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report",
                       help="full design/timing/power report")
    p.add_argument("design")
    p.add_argument("node", choices=["130nm", "7nm"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mc-samples", type=int, default=0,
                   help="also run statistical STA with N samples")

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
    p.add_argument("--workers", type=_positive_int, default=None,
                   metavar="N",
                   help="data-parallel training worker processes: the "
                        "step's design union is sharded across N "
                        "forked workers and the parent averages their "
                        "gradients (default: single-process step; "
                        "--workers 1 is bit-identical to it; clamped "
                        "to the CPU count and to the usable shard "
                        "count with a warning)")
    p.add_argument("--build-workers", type=_positive_int, default=1,
                   metavar="N",
                   help="processes for cold dataset builds")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk design cache")
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
                        "priors) for `repro predict --model`")
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
    p.add_argument("--no-cache", action="store_true",
                   help="disable the per-design feature cache")
    p.add_argument("--repeat", type=int, default=1,
                   help="repeat the prediction pass (cache warm-up "
                        "demo / profiling)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for cold dataset builds")
    p.add_argument("--no-flow-cache", action="store_true",
                   help="bypass the on-disk design cache")
    p.add_argument("--cache-dir", default=None,
                   help="design cache root (default $REPRO_CACHE_DIR)")
    p.add_argument("--profile", action="store_true",
                   help="print per-phase timing totals")

    p = sub.add_parser("serve",
                       help="resident prediction server with request "
                            "coalescing and model hot-reload")
    from .serve.__main__ import add_serve_arguments

    add_serve_arguments(p)

    p = sub.add_parser("report-run",
                       help="render a training run's telemetry")
    p.add_argument("run_dir", help="run directory written by `train`")
    p.add_argument("--diff", default=None, metavar="OTHER_RUN",
                   help="also diff the manifest against another run dir")

    p = sub.add_parser("check",
                       help="repo-specific static lint + autograd audit")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint "
                        "(default: the repro package source)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the static linter")
    p.add_argument("--no-gradcheck", action="store_true",
                   help="skip the autograd contract audit")
    p.add_argument("--dataflow", action="store_true",
                   help="run the whole-program analyses and the "
                        "tensor-contract checker over the package")
    p.add_argument("--diff-baseline", action="store_true",
                   help="fail only on findings not in the baseline")
    p.add_argument("--write-baseline", action="store_true",
                   help="record the current findings as the baseline")
    p.add_argument("--baseline", type=Path, default=None,
                   help="baseline file (default: ./check_baseline.json)")
    p.add_argument("--list-rules", action="store_true",
                   help="print every lint rule with its description")

    p = sub.add_parser("experiments",
                       help="regenerate the paper's tables/figures")
    p.add_argument("names", nargs="*")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="processes for cold dataset builds")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk design cache")

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
    p.add_argument("--build-workers", type=_positive_int, default=1,
                   metavar="N",
                   help="processes for cold dataset builds")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk design cache")
    p.add_argument("--cache-dir", default=None,
                   help="design cache root (default $REPRO_CACHE_DIR)")
    p.add_argument("--run-dir", default=None,
                   help="telemetry directory for this study "
                        "(default runs/<timestamp>-ladder/)")
    return parser


COMMANDS = {
    "check": cmd_check,
    "libs": cmd_libs,
    "report": cmd_report,
    "report-run": cmd_report_run,
    "flow": cmd_flow,
    "sta": cmd_sta,
    "export": cmd_export,
    "train": cmd_train,
    "ladder": cmd_ladder,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "experiments": cmd_experiments,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
