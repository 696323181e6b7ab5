"""Render a run directory as a terminal report (``repro report-run``).

Three renderers, composable and individually testable:

- :func:`render_loss_curve` — fixed-size ASCII chart of one series;
- :func:`manifest_diff` — field-by-field diff of two manifests
  (nested dicts are flattened to dotted paths);
- :func:`render_run` — the full report: manifest header, one chart per
  loss series, validation history, per-design metrics, and the merged
  phase-timing table (which includes phases measured inside
  ``build_designs`` worker processes — see ``repro.util.merge_timings``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Union

from ..util import format_timing_table

__all__ = ["load_run", "manifest_diff", "render_loss_curve", "render_run"]

#: Step-record fields that are bookkeeping, not loss series.
_NON_SERIES_FIELDS = frozenset({
    "kind", "step", "lr", "step_seconds", "warmup", "stage",
    "grad_norm", "grad_norm_clipped",
    # Execution telemetry of the since-removed data-parallel trainer:
    # older steps.jsonl files carry these per-step machine facts, which
    # are not loss series.
    "workers", "shard_seconds_max", "shard_seconds_mean",
})

#: Preferred ordering for the series charts (anything else follows,
#: alphabetically).
_SERIES_ORDER = ("total", "loss", "elbo", "contrastive", "cmd")


def render_loss_curve(values: Sequence[float], title: str = "",
                      width: int = 60, height: int = 10) -> str:
    """One series as a fixed-size ASCII chart (min/max annotated).

    Longer series are bucket-averaged down to ``width`` columns, so a
    10k-step run still renders as one readable chart.
    """
    values = [float(v) for v in values]
    if not values:
        return f"{title}: (no data)"
    n = len(values)
    columns: List[float] = []
    buckets = min(width, n)
    for b in range(buckets):
        lo = b * n // buckets
        hi = max(lo + 1, (b + 1) * n // buckets)
        chunk = values[lo:hi]
        columns.append(sum(chunk) / len(chunk))

    vmin, vmax = min(columns), max(columns)
    span = vmax - vmin
    lines = [f"{title}  [first {values[0]:.6g}  last {values[-1]:.6g}  "
             f"min {vmin:.6g}  max {vmax:.6g}]"]
    if span <= 0:
        lines.append("  " + "-" * buckets + "  (constant)")
        return "\n".join(lines)
    rows = []
    for r in range(height):
        upper = vmax - span * r / height
        lower = vmax - span * (r + 1) / height
        marks = []
        for v in columns:
            # The bottom row owns its lower edge so the minimum lands
            # inside the chart.
            hit = (lower < v <= upper) if r < height - 1 else (v <= upper)
            marks.append("*" if hit else " ")
        edge = vmax if r == 0 else (vmin if r == height - 1 else None)
        label = f"{edge:>10.4g} |" if edge is not None else " " * 10 + " |"
        rows.append(label + "".join(marks))
    lines.extend(rows)
    lines.append(" " * 10 + " +" + "-" * buckets)
    lines.append(" " * 12 + f"steps 0..{n - 1}")
    return "\n".join(lines)


def _flatten(mapping: Mapping[str, Any], prefix: str = ""
             ) -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in mapping.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def manifest_diff(a: Mapping[str, Any], b: Mapping[str, Any],
                  label_a: str = "this run", label_b: str = "other run"
                  ) -> str:
    """Field-level diff of two manifests (dotted keys, changed-only)."""
    flat_a, flat_b = _flatten(a), _flatten(b)
    lines: List[str] = []
    for key in sorted(set(flat_a) | set(flat_b)):
        if key == "created" or key.startswith("argv"):
            continue  # always differs; noise in a config diff
        in_a, in_b = key in flat_a, key in flat_b
        if in_a and not in_b:
            lines.append(f"  - {key}: {flat_a[key]!r}  (only in {label_a})")
        elif in_b and not in_a:
            lines.append(f"  + {key}: {flat_b[key]!r}  (only in {label_b})")
        elif flat_a[key] != flat_b[key]:
            lines.append(f"  ~ {key}: {flat_a[key]!r} -> {flat_b[key]!r}")
    if not lines:
        return "  (manifests agree on every field)"
    return "\n".join(lines)


def load_run(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Parse a run directory's artifacts (missing ones load as empty).

    A torn trailing line in ``steps.jsonl`` (crash artifact) is
    tolerated: every completed record still loads, and the fragment is
    surfaced as ``torn_tail`` so the report can mention it.
    """
    from .logger import read_records

    run_dir = Path(run_dir)
    out: Dict[str, Any] = {"manifest": {}, "records": [], "summary": {},
                           "torn_tail": None}
    manifest = run_dir / "manifest.json"
    if manifest.is_file():
        out["manifest"] = json.loads(manifest.read_text("utf-8"))
    steps = run_dir / "steps.jsonl"
    if steps.is_file():
        out["records"], out["torn_tail"] = read_records(steps)
    summary = run_dir / "summary.json"
    if summary.is_file():
        out["summary"] = json.loads(summary.read_text("utf-8"))
    return out


def _series_keys(steps: Sequence[Mapping[str, Any]]) -> List[str]:
    seen = set()
    for record in steps:
        for key, value in record.items():
            if key in _NON_SERIES_FIELDS or isinstance(value, (str, bool)):
                continue
            if isinstance(value, (int, float)):
                seen.add(key)
    ordered = [k for k in _SERIES_ORDER if k in seen]
    ordered.extend(sorted(seen - set(ordered)))
    return ordered


def render_run(run_dir: Union[str, Path],
               diff_against: Union[str, Path, None] = None,
               width: int = 60, height: int = 10) -> str:
    """The full terminal report for one run directory."""
    run_dir = Path(run_dir)
    run = load_run(run_dir)
    manifest, summary = run["manifest"], run["summary"]
    records = run["records"]
    steps = [r for r in records if r.get("kind") == "step"]
    validations = [r for r in records if r.get("kind") == "validation"]

    sections: List[str] = [f"run: {run_dir}"]

    # -- manifest header ----------------------------------------------
    if manifest:
        code = manifest.get("code", {})
        versions = manifest.get("versions", {})
        head = [f"created {manifest.get('created', '?')}",
                f"code_salt {code.get('code_salt', '?')}"]
        if code.get("git_sha"):
            head.append(f"git {code['git_sha'][:12]}")
        head.append(f"python {versions.get('python', '?')}")
        head.append(f"numpy {versions.get('numpy', '?')}")
        sections.append("  ".join(head))
        config = manifest.get("train_config") or {}
        if config:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
            sections.append(f"config: {pairs}")
        seeds = manifest.get("seeds") or {}
        if seeds:
            sections.append("seeds: " + ", ".join(
                f"{k}={v}" for k, v in sorted(seeds.items())))
    else:
        sections.append("(no manifest.json)")

    # -- crash/resume lifecycle ---------------------------------------
    if manifest.get("interrupted"):
        sections.append("status: INTERRUPTED — resumable with "
                        f"`repro train --resume {run_dir}`")
    if manifest.get("resumed_from_step") is not None:
        sections.append(
            f"resumed: from checkpoint at step "
            f"{manifest['resumed_from_step']}")
    if run.get("torn_tail"):
        sections.append("note: steps.jsonl has a torn trailing line "
                        "(crash artifact; repaired on --resume)")

    # -- loss curves ---------------------------------------------------
    if steps:
        sections.append("")
        for key in _series_keys(steps):
            series = [r[key] for r in steps if key in r]
            sections.append(render_loss_curve(series, title=key,
                                              width=width, height=height))
            sections.append("")
    else:
        sections.append("(no step records)")

    # -- validation history -------------------------------------------
    if validations:
        parts = [f"step {r['step']}: {r['score']:.4f}"
                 + (" *" if r.get("best") else "")
                 for r in validations]
        sections.append("validation R^2 (* = kept): " + "  ".join(parts))
    finals = [r for r in records if r.get("kind") == "final_weights"]
    if finals:
        # Multi-stage recipes (PT-FT) emit one per stage; the last one
        # describes the weights actually returned.
        sections.append(f"final weights: {finals[-1].get('source')}")

    # -- summary -------------------------------------------------------
    per_design = summary.get("per_design") or {}
    if per_design:
        sections.append("")
        sections.append("per-design metrics:")
        metric_keys = sorted({k for m in per_design.values() for k in m})
        for name in sorted(per_design):
            metrics = per_design[name]
            sections.append("  " + f"{name:>14}: " + "  ".join(
                f"{k}={metrics[k]:.4f}" for k in metric_keys
                if k in metrics))
    for key in ("mean_r2", "steps", "total_seconds"):
        if key in summary:
            sections.append(f"{key}: {summary[key]}")

    timings = summary.get("timings") or {}
    if timings:
        sections.append("")
        sections.append("phase timings (incl. worker processes):")
        sections.append(format_timing_table(timings))

    # -- manifest diff -------------------------------------------------
    if diff_against is not None:
        other = load_run(diff_against)["manifest"]
        sections.append("")
        sections.append(f"manifest diff vs {diff_against}:")
        sections.append(manifest_diff(manifest, other,
                                      label_a=str(run_dir),
                                      label_b=str(diff_against)))

    return "\n".join(sections)

