"""Entry point: ``python -m repro.serve`` (same as ``repro serve``).

The argparse surface lives here (:func:`add_serve_arguments` /
:func:`run_from_args`) so the top-level ``repro`` CLI can delegate
without duplicating flags.
"""

from __future__ import annotations

import argparse


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the `repro serve` flags to ``parser``."""
    parser.add_argument("--model", default=None, metavar="PATH",
                        help="serving checkpoint from `repro train "
                             "--save-model` (default: train from "
                             "scratch, like `repro predict`)")
    parser.add_argument("--train-steps", type=int, default=150,
                        help="training steps when no --model is given")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--batch-window-ms", type=float, default=2.0,
                        help="how long the first request of a batch "
                             "waits for companions to coalesce "
                             "(0 disables coalescing)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="cap on requests fused into one sweep")
    parser.add_argument("--poll-interval", type=float, default=0.0,
                        metavar="SECONDS",
                        help="check the --model file's mtime every N "
                             "seconds and hot-reload on change "
                             "(0 disables polling; POST /reload "
                             "always works)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for cold dataset builds")
    parser.add_argument("--no-flow-cache", action="store_true",
                        help="bypass the on-disk design cache")
    parser.add_argument("--cache-dir", default=None,
                        help="design cache root "
                             "(default $REPRO_CACHE_DIR)")


def run_from_args(args: argparse.Namespace) -> int:
    """Build the dataset + model, then serve until interrupted."""
    from ..experiments import build_dataset
    from ..infer import load_predictor
    from ..util import reset_timings
    from .server import PredictionServer, ServerConfig, warm_up

    reset_timings()
    dataset = build_dataset(workers=args.workers,
                            use_cache=not args.no_flow_cache,
                            cache_dir=args.cache_dir)
    designs = dataset.train + dataset.test
    if args.model:
        model = load_predictor(args.model)
        if model.init_config["in_features"] != dataset.in_features:
            print(f"checkpoint expects "
                  f"{model.init_config['in_features']} input features, "
                  f"dataset has {dataset.in_features}")
            return 1
    else:
        from ..model import TimingPredictor
        from ..train import OursTrainer, TrainConfig

        print(f"no --model given; training for {args.train_steps} "
              f"steps ...")
        model = TimingPredictor(dataset.in_features, seed=args.seed)
        trainer = OursTrainer(
            model, dataset.train,
            TrainConfig(steps=args.train_steps, seed=args.seed))
        trainer.fit()

    config = ServerConfig(host=args.host, port=args.port,
                          batch_window_ms=args.batch_window_ms,
                          max_batch=args.max_batch,
                          poll_interval=args.poll_interval)
    server = PredictionServer(designs, model, model_path=args.model,
                              config=config)
    warmed = warm_up(server.service)
    print(f"feature cache primed for {warmed} designs")
    server.start()
    mode = (f"coalescing window {config.batch_window_ms} ms, "
            f"max batch {config.max_batch}"
            if config.batch_window_ms > 0 else "coalescing disabled")
    print(f"serving {len(designs)} designs on "
          f"http://{server.host}:{server.port} ({mode})")
    print("endpoints: POST /predict, POST /reload, GET /healthz, "
          "GET /stats — Ctrl-C to stop")
    server.serve_forever()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="resident prediction server with request "
                    "coalescing and model hot-reload")
    add_serve_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
