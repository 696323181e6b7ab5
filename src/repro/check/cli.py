"""`repro check` — static lint and autograd audit.

Exit status is 0 only when every requested pass is clean; any finding
(or an unjustified/stale waiver) makes the command fail, which is what
lets CI and ``tests/check/test_self_clean.py`` gate on it.  A path that
does not exist or holds no ``.py`` file, and a run with both passes
switched off, are usage errors (exit 2), reported before anything is
checked.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .gradcheck import CASES, run_gradcheck
from .lint import iter_py_files, run_lint
from .rules import META_RULES, RULES, Finding


def package_root() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _render_text(findings: Sequence[Finding], ran: Dict[str, bool],
                 elapsed: float, emit: Callable[[str], None]) -> None:
    for finding in findings:
        emit(finding.format())
    passes = [name for name, on in ran.items() if on]
    suffix = f" [{', '.join(passes)}] ({elapsed:.1f}s)"
    if findings:
        emit(f"repro check: {len(findings)} finding(s){suffix}")
    else:
        emit(f"repro check: clean{suffix}")


def _render_json(findings: Sequence[Finding], ran: Dict[str, bool],
                 elapsed: float, emit: Callable[[str], None]) -> None:
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    emit(json.dumps({
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "by_rule": by_rule,
            "ran": ran,
            "elapsed_seconds": round(elapsed, 3),
        },
    }, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _validate_paths(paths: Sequence, emit: Callable[[str], None]) -> bool:
    """True when every explicit path exists and holds a ``.py`` file."""
    ok = True
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            emit(f"repro check: path does not exist: {raw}")
            ok = False
        elif next(iter_py_files(path), None) is None:
            emit(f"repro check: no Python file at {raw}")
            ok = False
    return ok


def run_check(paths: Optional[Sequence] = None, fmt: str = "text",
              do_lint: bool = True, do_gradcheck: bool = True,
              list_rules: bool = False,
              emit: Callable[[str], None] = print) -> int:
    """Programmatic entry point; returns the process exit status."""
    if list_rules:
        for entry in RULES.values():
            emit(f"{entry.name}: {entry.description}")
        for name, description in META_RULES.items():
            emit(f"{name}: {description} (driver-emitted)")
        emit(f"gradcheck: finite-difference + NaN/dtype + no-grad "
             f"graph + compiled-replay/aliasing audit over {len(CASES)} "
             "registered op cases")
        return 0

    if not (do_lint or do_gradcheck):
        emit("repro check: --no-lint and --no-gradcheck leave nothing "
             "to check")
        return 2
    if paths and not _validate_paths(paths, emit):
        return 2

    start = time.perf_counter()
    findings: List[Finding] = []
    if do_lint:
        findings.extend(run_lint(list(paths) if paths
                                 else [package_root()]))
    if do_gradcheck:
        findings.extend(run_gradcheck())

    ran = {"lint": do_lint, "gradcheck": do_gradcheck}
    elapsed = time.perf_counter() - start
    render = _render_json if fmt == "json" else _render_text
    render(findings, ran, elapsed, emit)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="repo-specific static lint and autograd contract "
                    "audit",
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
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule with its description")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_check(paths=args.paths, fmt=args.format,
                     do_lint=not args.no_lint,
                     do_gradcheck=not args.no_gradcheck,
                     list_rules=args.list_rules)
