"""One-stop experiment driver: regenerate every table and figure.

``python -m repro.experiments.runner`` reruns the full evaluation
(Tables 1-3, Figures 1/6/8) and prints paper-style renderings.  The
same entry points back the pytest benchmarks in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from ..cli import add_build_arguments
from .datasets import build_dataset
from .extensions import format_calibration, run_uncertainty_calibration
from .fig1 import format_fig1, run_fig1
from .fig6 import format_fig6, run_fig6
from .fig8 import format_fig8, run_fig8
from .ladder import format_reverse_transfer, run_reverse_transfer
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import format_table3, run_table3

EXPERIMENTS = {
    "table1": (run_table1, format_table1, False),
    "table2": (run_table2, format_table2, True),
    "table3": (run_table3, format_table3, True),
    "fig1": (run_fig1, format_fig1, True),
    "fig6": (run_fig6, format_fig6, False),
    "fig8": (run_fig8, format_fig8, True),
    "calibration": (run_uncertainty_calibration, format_calibration, True),
}


def run_all(names=None, seed: int = 0, steps: Optional[int] = None,
            stream=None, workers: int = 1,
            use_cache: bool = True) -> None:
    """Run the named experiments (all by default) and print results.

    The Table-1 dataset is built on the first experiment that takes it;
    ``reverse`` builds its own, so running it alone builds no other.
    """
    stream = stream or sys.stdout
    names = names or list(EXPERIMENTS) + ["reverse"]
    dataset = None
    for name in names:
        if name != "reverse" and dataset is None:
            dataset = build_dataset(workers=workers, use_cache=use_cache)
        t0 = time.perf_counter()
        if name == "reverse":
            result = run_reverse_transfer(steps=steps, seed=seed,
                                          workers=workers,
                                          use_cache=use_cache)
            fmt = format_reverse_transfer
        else:
            run, fmt, trains = EXPERIMENTS[name]
            kwargs = {"dataset": dataset}
            if trains:
                kwargs["seed"] = seed
                if steps is not None:
                    kwargs["steps"] = steps
            result = run(**kwargs)
        elapsed = time.perf_counter() - t0
        print(f"\n=== {name} ({elapsed:.1f}s) ===", file=stream)
        print(fmt(result), file=stream)


def _experiment_name(text: str) -> str:
    """argparse type for one experiment name.  (``choices=`` would
    also refuse the empty default of ``nargs="*"``.)"""
    names = list(EXPERIMENTS) + ["reverse"]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r} (choose from "
            f"{', '.join(names)})")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiments",
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("experiments", nargs="*", type=_experiment_name,
                        metavar="NAME",
                        help="subset to run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="override training steps (faster, rougher)")
    add_build_arguments(parser)
    args = parser.parse_args(argv)
    run_all(args.experiments or None, seed=args.seed, steps=args.steps,
            workers=args.build_workers, use_cache=not args.no_cache)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
