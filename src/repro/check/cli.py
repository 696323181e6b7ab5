"""`repro check` — static lint, whole-program analysis, autograd audit.

Exit status is 0 only when every requested pass is clean; any finding
(or an unjustified/stale waiver) makes the command fail, which is what
lets CI and ``tests/check/test_self_clean.py`` gate on it.

``--dataflow`` additionally runs the whole-program analyses
(:mod:`repro.check.analyses`) over the full package.  Because a
whole-program pass can surface long-accepted findings, the command
supports a committed baseline (``check_baseline.json``):
``--write-baseline`` records the current findings, ``--diff-baseline``
fails only on findings *not* in the baseline.  Baseline entries are
keyed by (rule, package-relative path, message) — deliberately without
line numbers, so unrelated edits that shift code do not invalidate the
baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .gradcheck import CASES, run_gradcheck
from .lint import (FileLint, Waiver, apply_waivers, collect_paths,
                   waivers_for_source)
from .rules import META_RULES, PROGRAM_RULES, RULES, Finding


def package_root() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(__file__).resolve().parent.parent


def default_lint_paths() -> List[Path]:
    return [package_root()]


def default_baseline_path() -> Path:
    """``check_baseline.json`` in the current working directory.

    CI and the self-clean gate run from the repository root, where the
    committed baseline lives; pass ``--baseline`` explicitly elsewhere.
    """
    return Path.cwd() / "check_baseline.json"


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def _baseline_path_key(path: str) -> str:
    """Package-relative path for baseline keys (refactor-tolerant)."""
    normalized = path.replace("\\", "/")
    marker = "repro/"
    index = normalized.rfind(marker)
    return normalized[index:] if index >= 0 else normalized


def baseline_key(finding: Finding) -> Tuple[str, str, str]:
    """Identity of a finding for baseline diffing — no line numbers, so
    edits that merely shift code do not invalidate the baseline."""
    return (finding.rule, _baseline_path_key(finding.path),
            finding.message)


def load_baseline(path: Path) -> Set[Tuple[str, str, str]]:
    with path.open(encoding="utf-8") as handle:
        payload = json.load(handle)
    return {(e["rule"], e["path"], e["message"])
            for e in payload.get("findings", [])}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    entries = sorted({baseline_key(f) for f in findings})
    payload = {
        "comment": "Accepted findings of `repro check --dataflow`; "
                   "regenerate with --write-baseline after review.",
        "findings": [{"rule": rule, "path": p, "message": message}
                     for rule, p, message in entries],
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _render_text(findings: Sequence[Finding], ran: Dict[str, bool],
                 elapsed: float, baselined: Optional[int],
                 emit: Callable[[str], None]) -> None:
    for finding in findings:
        emit(finding.format())
    passes = [name for name, on in ran.items() if on]
    suffix = f" [{', '.join(passes)}] ({elapsed:.1f}s)"
    if baselined:
        suffix += f" ({baselined} baselined finding(s) suppressed)"
    if findings:
        emit(f"repro check: {len(findings)} finding(s){suffix}")
    else:
        emit(f"repro check: clean{suffix}")


def _render_json(findings: Sequence[Finding], ran: Dict[str, bool],
                 elapsed: float, baselined: Optional[int],
                 emit: Callable[[str], None]) -> None:
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    summary = {
        "total": len(findings),
        "by_rule": by_rule,
        "ran": ran,
        "elapsed_seconds": round(elapsed, 3),
    }
    if baselined is not None:
        summary["baselined"] = baselined
    emit(json.dumps({
        "findings": [f.to_dict() for f in findings],
        "summary": summary,
    }, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _validate_paths(paths: Sequence, do_dataflow: bool,
                    emit: Callable[[str], None]) -> bool:
    """True when every explicit path is usable for the requested passes."""
    root = package_root()
    ok = True
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            emit(f"repro check: path does not exist: {raw}")
            ok = False
            continue
        if do_dataflow:
            resolved = path.resolve()
            if resolved != root and root not in resolved.parents:
                emit(f"repro check: {raw} is not part of the repro "
                     f"package (expected a path under {root}); the "
                     "whole-program analyses only run over the package "
                     "source tree")
                ok = False
    return ok


def run_check(paths: Optional[Sequence] = None, fmt: str = "text",
              do_lint: bool = True, do_gradcheck: bool = True,
              do_dataflow: bool = False, diff_baseline: bool = False,
              write_baseline_file: bool = False,
              baseline: Optional[Path] = None, list_rules: bool = False,
              emit: Callable[[str], None] = print) -> int:
    """Programmatic entry point; returns the process exit status."""
    if list_rules:
        for entry in RULES.values():
            emit(f"{entry.name}: {entry.description}")
        for entry in PROGRAM_RULES.values():
            emit(f"{entry.name}: {entry.description} (--dataflow)")
        for name, description in META_RULES.items():
            emit(f"{name}: {description} (driver-emitted)")
        emit(f"gradcheck: finite-difference + NaN/dtype + no-grad "
             f"graph + compiled-replay/aliasing audit over {len(CASES)} "
             "registered op cases")
        return 0

    if paths and not _validate_paths(paths, do_dataflow, emit):
        return 2

    start = time.perf_counter()
    ran = {"lint": do_lint, "gradcheck": do_gradcheck,
           "dataflow": do_dataflow}

    raw_findings: List[Finding] = []
    waivers_by_path: Dict[str, Dict[int, Waiver]] = {}
    active_rules: Set[str] = set()

    collected: List[FileLint] = []
    if do_lint:
        collected = collect_paths(list(paths) if paths
                                  else default_lint_paths())
        active_rules |= set(RULES)
        for item in collected:
            raw_findings.extend(item.findings)
            waivers_by_path[item.display] = item.waivers

    if do_dataflow:
        from .analyses import run_program_analyses
        from .callgraph import Program

        program = Program.build(package_root(), "repro")
        raw_findings.extend(run_program_analyses(program))
        active_rules |= set(PROGRAM_RULES)
        # Program findings can land in files the lint pass never saw
        # (e.g. lint was scoped to a subdirectory) — parse their
        # waivers so inline suppressions still apply.
        for module in program.modules.values():
            if module.display not in waivers_by_path:
                try:
                    source = module.path.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError):
                    continue
                waivers_by_path[module.display] = \
                    waivers_for_source(source)

    findings = apply_waivers(raw_findings, waivers_by_path, active_rules)

    if do_gradcheck:
        findings.extend(run_gradcheck())

    baselined: Optional[int] = None
    baseline_file = Path(baseline) if baseline is not None \
        else default_baseline_path()
    if write_baseline_file:
        write_baseline(baseline_file, findings)
        emit(f"repro check: wrote {len(findings)} finding(s) to "
             f"{baseline_file}")
        return 0
    if diff_baseline:
        try:
            known = load_baseline(baseline_file)
        except FileNotFoundError:
            known = set()
        before = len(findings)
        findings = [f for f in findings if baseline_key(f) not in known]
        baselined = before - len(findings)

    elapsed = time.perf_counter() - start
    if fmt == "json":
        _render_json(findings, ran, elapsed, baselined, emit)
    else:
        _render_text(findings, ran, elapsed, baselined, emit)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="repo-specific static lint, whole-program dataflow "
                    "analysis, and autograd contract audit",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to lint "
                             "(default: the repro package source)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text", help="output format")
    parser.add_argument("--no-lint", action="store_true",
                        help="skip the static linter")
    parser.add_argument("--no-gradcheck", action="store_true",
                        help="skip the autograd contract audit")
    parser.add_argument("--dataflow", action="store_true",
                        help="run the whole-program analyses over the "
                             "package")
    parser.add_argument("--diff-baseline", action="store_true",
                        help="fail only on findings not recorded in the "
                             "baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record the current findings as the "
                             "accepted baseline and exit 0")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file (default: "
                             "./check_baseline.json)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_check(paths=args.paths, fmt=args.format,
                     do_lint=not args.no_lint,
                     do_gradcheck=not args.no_gradcheck,
                     do_dataflow=args.dataflow,
                     diff_baseline=args.diff_baseline,
                     write_baseline_file=args.write_baseline,
                     baseline=args.baseline,
                     list_rules=args.list_rules)
