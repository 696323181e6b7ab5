"""Entry point: ``python -m repro.serve`` (same as ``repro serve``,
which runs :func:`main` with its arguments)."""

from __future__ import annotations

import argparse
import math

from ..cli import _positive_int, add_build_arguments, load_or_train


def _port(text: str) -> int:
    """argparse type for a TCP port; 0 asks the OS for a free one."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port in 0-65535, got {value}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for a finite window or interval >= 0 (0 switches
    it off)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text}")
    return value


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the `repro serve` flags to ``parser``."""
    parser.add_argument("--model", default=None, metavar="PATH",
                        help="serving checkpoint from `repro train "
                             "--save-model` (default: train from "
                             "scratch, like `repro predict`)")
    parser.add_argument("--train-steps", type=int, default=150,
                        help="training steps when no --model is given")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_port, default=8000,
                        help="TCP port (0 picks a free one)")
    parser.add_argument("--batch-window-ms", type=_non_negative_float,
                        default=2.0,
                        help="how long the first request of a batch "
                             "waits for companions to coalesce "
                             "(0 disables coalescing)")
    parser.add_argument("--max-batch", type=_positive_int, default=32,
                        help="cap on requests fused into one sweep")
    parser.add_argument("--poll-interval", type=_non_negative_float,
                        default=0.0,
                        metavar="SECONDS",
                        help="check the --model file's mtime every N "
                             "seconds and hot-reload on change "
                             "(0 disables polling; POST /reload "
                             "always works)")
    parser.add_argument("--seed", type=int, default=0)
    add_build_arguments(parser)
    parser.add_argument("--cache-dir", default=None,
                        help="design cache root "
                             "(default $REPRO_CACHE_DIR)")


def run_from_args(args: argparse.Namespace) -> int:
    """Build the dataset + model, then serve until interrupted."""
    from ..experiments import build_dataset
    from ..util import reset_timings, set_blas_threads
    from .server import PredictionServer, ServerConfig, warm_up

    reset_timings()
    dataset = build_dataset(workers=args.build_workers,
                            use_cache=not args.no_cache,
                            cache_dir=args.cache_dir)
    designs = dataset.train + dataset.test
    model = load_or_train(args, dataset)
    if model is None:
        return 1
    # Every BLAS call on the thread that makes it: an idle OpenBLAS
    # worker busy-waits and would hold a core the request threads need
    # (DESIGN.md §25).  Set before the start-up warm and the server's
    # threads, the BLAS work it is for.  A model trained above already
    # ran its fit at one thread (DESIGN.md §11), so where this line
    # sits decides none of its bits.
    set_blas_threads(1)

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
