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
An inline waiver is the only way to accept a finding.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .rules import META_RULES, RULES, FileContext, Finding

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


def lint_file(path: Path, display_path: Optional[str] = None) -> List[Finding]:
    """Run every registered rule over one file, applying its waivers."""
    display = display_path if display_path is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding("syntax-error", display, 1, f"unreadable: {exc}")]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding("syntax-error", display, exc.lineno or 1,
                        f"syntax error: {exc.msg}")]

    lines = source.splitlines()
    ctx = FileContext(path=display,
                      module_path=str(path).replace("\\", "/"),
                      source=source, lines=lines, tree=tree)
    findings = [finding for entry in RULES.values()
                for finding in entry.check(ctx)]
    return _apply_waivers(findings, display, _parse_waivers(source, lines))


def _apply_waivers(findings: Iterable[Finding], path: str,
                   waivers: Dict[int, Waiver]) -> List[Finding]:
    """Filter one file's findings through its waivers and report the
    waiver bookkeeping."""
    kept: List[Finding] = []
    for finding in findings:
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

    known = set(RULES) | set(META_RULES)
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
        elif not waiver.used and all(name in known
                                     for name in waiver.rules):
            kept.append(Finding(
                "unused-waiver", path, waiver.line,
                f"waiver for {','.join(waiver.rules)} suppresses "
                "nothing here; remove it",
            ))
    kept.sort(key=lambda f: (f.line, f.rule))
    return kept


def iter_py_files(target: Path) -> Iterable[Path]:
    """The ``.py`` files a lint target names: itself, or those under it."""
    if target.is_dir():
        yield from sorted(target.rglob("*.py"))
    elif target.suffix == ".py":
        yield target


def run_lint(paths: Sequence) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    cwd = Path.cwd()
    for target in paths:
        for file_path in iter_py_files(Path(target)):
            try:
                display = str(file_path.resolve().relative_to(cwd))
            except ValueError:
                display = str(file_path)
            findings.extend(lint_file(file_path, display))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
