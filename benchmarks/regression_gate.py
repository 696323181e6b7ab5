"""Benchmark regression gate: compare a fresh bench run to the baseline.

Usage::

    python benchmarks/regression_gate.py BASELINE.json CANDIDATE.json \\
        [--tolerance 0.25]

Both files follow the ``BENCH_train.json`` schema written by
``benchmarks/bench_train_step.py``.  Absolute seconds are not
comparable across machines or load conditions (the committed baseline
comes from a different box/moment than the CI runner), so the gate
compares *within-run interleaved ratios*: the bench steps all variants
through the same noise windows, so each run's ratios isolate the code
from the machine.

Checks, each printed with a PASS/FAIL verdict:

- ``train_step.compile_speedup_min`` (compiled vs fused pure-compute
  floors; ~1.0 by construction, since the compiled step runs the same
  numpy math minus the graph bookkeeping) must stay above
  ``baseline * (1 - tolerance)`` — a breach means the compiled
  kernels themselves got slower than the eager math they replace;
- ``train_step.max_abs_loss_dev_compiled`` must stay <= 1e-12: the
  compiled step's bit-for-bit contract is enforced here too, so the
  gate catches equivalence breakage even if the bench's own assert is
  ever relaxed;
- ``parallel_scaling.workers.1.max_abs_loss_dev`` must stay <= 1e-12
  unconditionally — a one-worker fleet that drifts from the
  single-process step broke the data-parallel lockstep contract;
- ``parallel_scaling.workers.N.speedup_mean`` is compared against the
  baseline only when both machines report at least N CPUs (a 1-CPU
  box serializes the shards, so its "speedup" measures nothing).

The mean-based ``compile_speedup`` headline (which includes the eager
allocator/GC storms the compile layer removes) is deliberately *not*
gated: storm intensity varies with machine/load, so it only flags how
big the win was, not whether the code regressed.  Absolute seconds of
both runs are printed as context.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Within-run ratio fields gated against the baseline (higher = better).
GATED_RATIOS = ("compile_speedup_min",)

#: Hard ceiling on the compiled-vs-eager float64 loss deviation.
MAX_LOSS_DEV = 1e-12

#: Printed for context (never gated — machine/load dependent).
CONTEXT_FIELDS = ("fused_seconds", "compiled_seconds",
                  "compile_speedup")


def load_payload(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "train_step" not in payload:
        raise SystemExit(f"{path}: not a BENCH_train payload "
                         "(missing 'train_step')")
    return payload


def load_train_step(path: str) -> dict:
    return load_payload(path)["train_step"]


def _cpu_count(payload: dict) -> int:
    machine = payload.get("machine") or {}
    count = machine.get("cpu_count")
    return int(count) if isinstance(count, (int, float)) and count else 1


def check_parallel(baseline: dict, candidate: dict,
                   tolerance: float) -> list:
    """Verdicts for the ``parallel_scaling`` section.

    The ``workers=1`` bit-exactness contract is machine-independent and
    gated unconditionally.  Scaling ratios are only meaningful where
    the cores exist to deliver them, so a worker count's speedup is
    compared against the baseline only when *both* machines have at
    least that many CPUs; otherwise the entry is reported as
    informational.  A candidate without the section fails outright —
    that's the regression the gate exists to catch.
    """
    verdicts = []
    cand_section = candidate.get("parallel_scaling")
    if not isinstance(cand_section, dict):
        return [(False, "parallel_scaling: missing from candidate")]
    base_section = baseline.get("parallel_scaling")
    if not isinstance(base_section, dict):
        # Baseline predates the section: enforce the exactness contract
        # on the candidate alone.
        base_section = {}

    dev = (cand_section.get("workers", {}).get("1", {})
           .get("max_abs_loss_dev"))
    if not isinstance(dev, (int, float)):
        verdicts.append((False, "parallel_scaling workers=1 "
                                "max_abs_loss_dev: missing from "
                                "candidate"))
    else:
        verdicts.append((dev <= MAX_LOSS_DEV,
                         f"parallel_scaling workers=1 loss dev: "
                         f"{dev:.1e} (ceiling {MAX_LOSS_DEV:.0e})"))

    base_cpus = _cpu_count(baseline)
    cand_cpus = _cpu_count(candidate)
    base_workers = base_section.get("workers", {})
    for count, cand_entry in sorted(cand_section.get("workers", {})
                                    .items(), key=lambda kv: int(kv[0])):
        if int(count) < 2:
            # workers=1 exists for the exactness contract above; its
            # mean-based "speedup" only measures how many allocator
            # storms the single-process reference happened to absorb,
            # so it is as ungated as compile_speedup.
            continue
        base_entry = base_workers.get(count)
        cand_speedup = cand_entry.get("speedup_mean")
        if base_entry is None \
                or not isinstance(base_entry.get("speedup_mean"),
                                  (int, float)):
            continue
        if min(base_cpus, cand_cpus) < int(count):
            print(f"[info] parallel_scaling workers={count}: not gated "
                  f"(needs {count} CPUs; baseline has {base_cpus}, "
                  f"candidate {cand_cpus}); candidate "
                  f"{cand_speedup if isinstance(cand_speedup, (int, float)) else float('nan'):.2f}x")
            continue
        base_speedup = base_entry["speedup_mean"]
        if not isinstance(cand_speedup, (int, float)):
            verdicts.append((False, f"parallel_scaling workers={count} "
                                    "speedup_mean: missing from "
                                    "candidate"))
            continue
        floor = base_speedup * (1.0 - tolerance)
        verdicts.append(
            (cand_speedup >= floor,
             f"parallel_scaling workers={count} speedup: "
             f"{cand_speedup:.2f}x vs baseline {base_speedup:.2f}x "
             f"(floor {floor:.2f}x)"))
    return verdicts


def check(baseline: dict, candidate: dict, tolerance: float) -> list:
    """List of ``(ok, message)`` verdicts for every gated field."""
    verdicts = []
    for field in GATED_RATIOS:
        base = baseline.get(field)
        cand = candidate.get(field)
        if not isinstance(base, (int, float)):
            verdicts.append((False, f"{field}: missing from baseline"))
            continue
        if not isinstance(cand, (int, float)):
            verdicts.append((False, f"{field}: missing from candidate"))
            continue
        floor = base * (1.0 - tolerance)
        ok = cand >= floor
        verdicts.append((ok, f"{field}: {cand:.2f}x vs baseline "
                             f"{base:.2f}x (floor {floor:.2f}x)"))
    dev = candidate.get("max_abs_loss_dev_compiled")
    if not isinstance(dev, (int, float)):
        verdicts.append((False, "max_abs_loss_dev_compiled: missing "
                                "from candidate"))
    else:
        verdicts.append((dev <= MAX_LOSS_DEV,
                         f"max_abs_loss_dev_compiled: {dev:.1e} "
                         f"(ceiling {MAX_LOSS_DEV:.0e})"))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a bench run regresses past the "
                    "tolerance band vs the committed baseline")
    parser.add_argument("baseline", help="committed BENCH_train.json")
    parser.add_argument("candidate", help="freshly measured bench JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional ratio drop "
                             "(default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    baseline_payload = load_payload(args.baseline)
    candidate_payload = load_payload(args.candidate)
    baseline = baseline_payload["train_step"]
    candidate = candidate_payload["train_step"]
    for field in CONTEXT_FIELDS:
        print(f"[info] {field}: candidate "
              f"{candidate.get(field, float('nan')):.4f}, baseline "
              f"{baseline.get(field, float('nan')):.4f}")
    verdicts = check(baseline, candidate, args.tolerance)
    verdicts += check_parallel(baseline_payload, candidate_payload,
                               args.tolerance)
    failed = False
    for ok, message in verdicts:
        print(f"[{'PASS' if ok else 'FAIL'}] {message}")
        failed = failed or not ok
    print("regression gate:", "FAILED" if failed else "passed",
          f"(tolerance {args.tolerance:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
