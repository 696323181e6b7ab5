"""File driver for the lint rules: parsing, waivers, aggregation.

Waiver syntax
-------------
A finding is suppressed by a comment on the offending line, or on a
comment-only line immediately above it::

    risky()  # repro-check: disable=<rule>[,<rule>...] -- <justification>

The justification is **required**: a waiver is a reviewed exception,
and the reason must survive next to the code.  A waiver without one
suppresses nothing and is itself reported
(``waiver-missing-justification``); a waiver that matches no finding is
reported too (``unused-waiver``), so stale waivers cannot accumulate.

The driver is split into a *collect* phase (run the rules, parse the
waivers, apply nothing) and an *apply* phase
(:func:`apply_waivers`), because waivers must be accounted against
every rule family that ran — a waiver naming a ``--dataflow`` program
rule is only "unused" when the dataflow analyses actually executed and
still produced nothing on that line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .rules import META_RULES, PROGRAM_RULES, RULES, FileContext, Finding

_WAIVER_RE = re.compile(
    r"repro-check:\s*disable=([A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
    r"\s*(.*)$"
)


@dataclass
class Waiver:
    """One parsed ``repro-check: disable=...`` comment."""

    line: int
    rules: List[str]
    justification: str
    own_line: bool           # the comment is alone on its line
    used: bool = field(default=False)

    @property
    def justified(self) -> bool:
        return len(self.justification) >= 3


def _comments_by_line(source: str) -> Dict[int, str]:
    """Map line number -> comment text, via the tokenizer.

    Using real COMMENT tokens (rather than scanning for ``#``) means a
    waiver-looking substring inside a string literal — e.g. the regex in
    this very module — is never mistaken for a waiver.
    """
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def _parse_waivers(source: str, lines: Sequence[str]) -> Dict[int, Waiver]:
    waivers: Dict[int, Waiver] = {}
    for lineno, comment in _comments_by_line(source).items():
        match = _WAIVER_RE.search(comment)
        if not match:
            continue
        names = [part.strip() for part in match.group(1).split(",")]
        justification = match.group(2).strip().lstrip("-—:# ").strip()
        own_line = lines[lineno - 1].lstrip().startswith("#")
        waivers[lineno] = Waiver(lineno, names, justification, own_line)
    return waivers


def waivers_for_source(source: str) -> Dict[int, Waiver]:
    """Parse waivers from source text (for files outside the lint set)."""
    return _parse_waivers(source, source.splitlines() or [""])


@dataclass
class FileLint:
    """The collect-phase result for one file: raw findings + waivers."""

    display: str
    findings: List[Finding]
    waivers: Dict[int, Waiver] = field(default_factory=dict)


def collect_file(path: Path, display_path: Optional[str] = None) -> FileLint:
    """Run every registered lint rule over one file; apply no waivers."""
    display = display_path if display_path is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return FileLint(display, [Finding("syntax-error", display, 1,
                                          f"unreadable: {exc}")])
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return FileLint(display, [Finding("syntax-error", display,
                                          exc.lineno or 1,
                                          f"syntax error: {exc.msg}")])

    lines = source.splitlines()
    ctx = FileContext(path=display,
                      module_path=str(path).replace("\\", "/"),
                      source=source, lines=lines, tree=tree)
    waivers = _parse_waivers(source, lines)

    findings: List[Finding] = []
    for entry in RULES.values():
        findings.extend(entry.check(ctx))
    return FileLint(display, findings, waivers)


def apply_waivers(findings: Iterable[Finding],
                  waivers_by_path: Dict[str, Dict[int, Waiver]],
                  active_rules: Set[str]) -> List[Finding]:
    """Filter findings through waivers and report waiver bookkeeping.

    ``active_rules`` is the set of rule names that actually executed in
    this run.  An unused waiver is only reported when *every* rule it
    names was active — a waiver for a dataflow rule must not be called
    stale by a lint-only invocation that never gave it the chance to
    suppress anything.
    """
    kept: List[Finding] = []
    for finding in findings:
        waivers = waivers_by_path.get(finding.path, {})
        waiver = waivers.get(finding.line)
        above = waivers.get(finding.line - 1)
        if above is not None and not above.own_line:
            above = None  # trailing comment of the previous statement
        for candidate in (waiver, above):
            if (candidate is not None and candidate.justified
                    and finding.rule in candidate.rules):
                candidate.used = True
                break
        else:
            kept.append(finding)

    # Program rules register when repro.check.analyses is imported; a
    # lint-only run must still recognise their names in waivers, so
    # force the registration before deciding what is "unknown".
    from . import analyses  # noqa: F401  (populates PROGRAM_RULES)

    known = set(RULES) | set(META_RULES) | set(PROGRAM_RULES)
    accountable = active_rules | set(META_RULES)
    for path, waivers in waivers_by_path.items():
        for waiver in waivers.values():
            for name in waiver.rules:
                if name not in known:
                    kept.append(Finding(
                        "unknown-waiver-rule", path, waiver.line,
                        f"waiver names unknown rule '{name}' "
                        f"(see `repro check --list-rules`)",
                    ))
            if not waiver.justified:
                kept.append(Finding(
                    "waiver-missing-justification", path, waiver.line,
                    "waiver has no justification; write `# repro-check: "
                    "disable=<rule> -- <why this exception is safe>`",
                ))
            elif not waiver.used and all(name in accountable
                                         for name in waiver.rules):
                kept.append(Finding(
                    "unused-waiver", path, waiver.line,
                    f"waiver for {','.join(waiver.rules)} suppresses "
                    "nothing here; remove it",
                ))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


def lint_file(path: Path, display_path: Optional[str] = None) -> List[Finding]:
    """Run every registered rule over one file, applying waivers."""
    collected = collect_file(path, display_path)
    return apply_waivers(collected.findings,
                         {collected.display: collected.waivers},
                         set(RULES))


def _iter_py_files(target: Path) -> Iterable[Path]:
    if target.is_dir():
        yield from sorted(target.rglob("*.py"))
    elif target.suffix == ".py":
        yield target


def collect_paths(paths: Sequence) -> List[FileLint]:
    """Collect-phase over every ``.py`` file under the given targets."""
    results: List[FileLint] = []
    cwd = Path.cwd()
    for target in paths:
        for file_path in _iter_py_files(Path(target)):
            try:
                display = str(file_path.resolve().relative_to(cwd))
            except ValueError:
                display = str(file_path)
            results.append(collect_file(file_path, display))
    return results


def run_lint(paths: Sequence) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    collected = collect_paths(paths)
    all_findings = [f for c in collected for f in c.findings]
    waivers_by_path = {c.display: c.waivers for c in collected}
    return apply_waivers(all_findings, waivers_by_path, set(RULES))
