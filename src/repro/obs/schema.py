"""Schema for run-telemetry artifacts (manifest, step stream, summary).

A run directory holds exactly three artifacts (see
:mod:`repro.obs.logger`):

``manifest.json``
    One JSON object describing *what was run*: the full training
    config, every seed, code-version markers (flow cache salt, git
    SHA), and package versions.

``steps.jsonl``
    One JSON object per line, streamed during training.  Every record
    carries a ``kind``; the known kinds and their required fields are
    in :data:`RECORD_SCHEMAS`.  Records may carry extra fields (e.g.
    per-loss-term values differ between ours and the baselines) — the
    schema pins the invariants, not the full shape.

``summary.json``
    One JSON object with final per-design metrics and the merged
    timing registry.

Everything here is dependency-free validation used three ways: by
``RunLogger`` at write time (a malformed record fails fast, in the
writer's stack frame), by the test suite, and by CI via
``python -m repro.obs RUNDIR``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "BENCH_INFERENCE_SCHEMA",
    "BENCH_SERVING_SCHEMA",
    "MANIFEST_REQUIRED",
    "RECORD_SCHEMAS",
    "SUMMARY_REQUIRED",
    "validate_bench_inference",
    "validate_bench_serving",
    "validate_manifest",
    "validate_record",
    "validate_run_dir",
    "validate_summary",
]

#: ``kind`` -> required fields and their accepted types.  ``bool`` is a
#: subclass of ``int``, so numeric slots explicitly reject it.
RECORD_SCHEMAS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    # One optimisation step.  Loss-term fields vary per strategy and
    # ride along as extras (``total``/``elbo``/... for ours, ``loss``
    # for the MSE baselines).
    "step": {
        "step": (int,),
        "lr": (int, float),
        "step_seconds": (int, float),
    },
    # One held-out validation evaluation; ``best`` says whether the
    # checkpoint keeper adopted this snapshot.
    "validation": {
        "step": (int,),
        "score": (int, float),
        "best": (bool,),
    },
    # Which weights ended up in the returned model.
    "final_weights": {
        "source": (str,),
    },
    # Freeform annotation (phase transitions, warnings, ...).
    "note": {
        "message": (str,),
    },
}

#: Dotted paths that must exist in every manifest.
MANIFEST_REQUIRED = (
    "created",
    "train_config",
    "seeds",
    "code.code_salt",
    "versions.python",
    "versions.numpy",
)

#: Top-level keys every summary must carry.
SUMMARY_REQUIRED = ("per_design", "timings")

_SCALAR = (str, int, float, bool, type(None))


def _dig(mapping: Mapping[str, Any], dotted: str) -> Any:
    node: Any = mapping
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def _type_ok(value: Any, types: Tuple[type, ...]) -> bool:
    if not isinstance(value, types):
        return False
    # bool passes isinstance(..., int); keep flag fields and numeric
    # fields distinct.
    if bool not in types and isinstance(value, bool):
        return False
    return True


def validate_record(record: Any) -> List[str]:
    """Problems with one steps.jsonl record ([] when valid)."""
    if not isinstance(record, Mapping):
        return [f"record is not an object: {record!r}"]
    kind = record.get("kind")
    if not isinstance(kind, str):
        return ["record has no string 'kind' field"]
    schema = RECORD_SCHEMAS.get(kind)
    if schema is None:
        return [f"unknown record kind {kind!r} "
                f"(known: {', '.join(sorted(RECORD_SCHEMAS))})"]
    errors = []
    for field, types in schema.items():
        if field not in record:
            errors.append(f"{kind} record missing field {field!r}")
        elif not _type_ok(record[field], types):
            errors.append(
                f"{kind} record field {field!r} has type "
                f"{type(record[field]).__name__}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    for field, value in record.items():
        if not isinstance(value, _SCALAR):
            errors.append(f"{kind} record field {field!r} is not a JSON "
                          f"scalar: {type(value).__name__}")
    return errors


def validate_manifest(manifest: Any) -> List[str]:
    """Problems with a manifest object ([] when valid)."""
    if not isinstance(manifest, Mapping):
        return ["manifest is not an object"]
    errors = []
    for dotted in MANIFEST_REQUIRED:
        try:
            _dig(manifest, dotted)
        except KeyError:
            errors.append(f"manifest missing required field {dotted!r}")
    return errors


def validate_summary(summary: Any) -> List[str]:
    """Problems with a summary object ([] when valid)."""
    if not isinstance(summary, Mapping):
        return ["summary is not an object"]
    errors = []
    for key in SUMMARY_REQUIRED:
        if key not in summary:
            errors.append(f"summary missing required field {key!r}")
    per_design = summary.get("per_design")
    if per_design is not None and not isinstance(per_design, Mapping):
        errors.append("summary 'per_design' is not an object")
    timings = summary.get("timings")
    if isinstance(timings, Mapping):
        for name, entry in timings.items():
            if not (isinstance(entry, Mapping)
                    and "calls" in entry and "seconds" in entry):
                errors.append(f"summary timing {name!r} lacks "
                              "calls/seconds")
    elif timings is not None:
        errors.append("summary 'timings' is not an object")
    return errors


#: section -> required numeric/typed fields of ``BENCH_inference.json``
#: (written by ``benchmarks/bench_inference.py``, validated in CI via
#: ``python -m repro.obs --bench``).
BENCH_INFERENCE_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "single_design": {
        "design": (str,),
        "cold_seconds": (int, float),
        "warm_seconds": (int, float),
        "speedup": (int, float),
        "repeats": (int,),
        "statistic": (str,),
    },
    "forward": {
        "autograd_seconds": (int, float),
        "nograd_seconds": (int, float),
        "speedup": (int, float),
    },
    "batched": {
        "looped_autograd_seconds": (int, float),
        "fused_nograd_seconds": (int, float),
        "speedup": (int, float),
        "num_designs": (int,),
        "num_endpoints": (int,),
    },
    "throughput": {
        "endpoints_per_second_warm": (int, float),
        "endpoints_per_second_cold": (int, float),
    },
    "equivalence": {
        "max_abs_diff": (int, float),
        "atol": (int, float),
    },
}


def validate_bench_inference(payload: Any) -> List[str]:
    """Problems with a ``BENCH_inference.json`` object ([] when valid)."""
    if not isinstance(payload, Mapping):
        return ["bench payload is not an object"]
    errors = []
    for section, fields in BENCH_INFERENCE_SCHEMA.items():
        block = payload.get(section)
        if not isinstance(block, Mapping):
            errors.append(f"bench missing section {section!r}")
            continue
        for field, types in fields.items():
            if field not in block:
                errors.append(f"bench {section}.{field} missing")
            elif not _type_ok(block[field], types):
                errors.append(
                    f"bench {section}.{field} has type "
                    f"{type(block[field]).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
    if not isinstance(payload.get("smoke"), bool):
        errors.append("bench missing boolean 'smoke' flag")
    return errors


#: section -> required fields of ``BENCH_serving.json`` (written by
#: ``benchmarks/bench_serving.py``, validated in CI via
#: ``python -m repro.obs --bench-serving``).  ``coalesced`` is the
#: server with the batching window open, ``uncoalesced`` the identical
#: server at window 0; ``speedup`` is their throughput ratio and
#: ``equivalence`` the max deviation of a served prediction from the
#: direct in-process engine answer.
BENCH_SERVING_SCHEMA: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "coalesced": {
        "requests_per_second": (int, float),
        "p50_ms": (int, float),
        "p99_ms": (int, float),
        "clients": (int,),
        "requests": (int,),
        "batch_window_ms": (int, float),
        "max_batch": (int,),
        "mean_batch_size": (int, float),
    },
    "uncoalesced": {
        "requests_per_second": (int, float),
        "p50_ms": (int, float),
        "p99_ms": (int, float),
        "clients": (int,),
        "requests": (int,),
    },
    "speedup": {
        "throughput_ratio": (int, float),
    },
    "equivalence": {
        "max_abs_diff": (int, float),
        "atol": (int, float),
    },
}


def validate_bench_serving(payload: Any) -> List[str]:
    """Problems with a ``BENCH_serving.json`` object ([] when valid)."""
    if not isinstance(payload, Mapping):
        return ["bench payload is not an object"]
    errors = []
    for section, fields in BENCH_SERVING_SCHEMA.items():
        block = payload.get(section)
        if not isinstance(block, Mapping):
            errors.append(f"bench missing section {section!r}")
            continue
        for field, types in fields.items():
            if field not in block:
                errors.append(f"bench {section}.{field} missing")
            elif not _type_ok(block[field], types):
                errors.append(
                    f"bench {section}.{field} has type "
                    f"{type(block[field]).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in types)}"
                )
    if not isinstance(payload.get("smoke"), bool):
        errors.append("bench missing boolean 'smoke' flag")
    return errors


def validate_run_dir(run_dir: Union[str, Path],
                     warnings: Optional[List[str]] = None) -> List[str]:
    """Every schema problem in a run directory ([] when fully valid).

    A torn *trailing* line in ``steps.jsonl`` — the signature a crashed
    writer leaves behind, and exactly what ``--resume`` repairs — is
    not an error: every completed record before it is still validated,
    and the tear is reported into ``warnings`` (when a list is given)
    so ``python -m repro.obs`` can surface it without failing the run.
    An undecodable line anywhere *else* is real corruption and stays an
    error.
    """
    run_dir = Path(run_dir)
    errors: List[str] = []
    if warnings is None:
        warnings = []

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        errors.append("manifest.json missing")
    else:
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"manifest.json unreadable: {exc}")
        else:
            errors.extend(validate_manifest(manifest))

    steps_path = run_dir / "steps.jsonl"
    if not steps_path.is_file():
        errors.append("steps.jsonl missing")
    else:
        from .logger import read_records

        try:
            records, torn = read_records(steps_path)
        except ValueError as exc:   # undecodable record mid-stream
            errors.append(str(exc))
        else:
            if torn is not None:
                warnings.append(
                    f"steps.jsonl: torn trailing line (crash artifact; "
                    f"repaired on --resume): {torn[:60]!r}")
            for n, record in enumerate(records, start=1):
                errors.extend(f"steps.jsonl record {n}: {problem}"
                              for problem in validate_record(record))

    summary_path = run_dir / "summary.json"
    if not summary_path.is_file():
        errors.append("summary.json missing")
    else:
        try:
            summary = json.loads(summary_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"summary.json unreadable: {exc}")
        else:
            errors.extend(validate_summary(summary))
    return errors
