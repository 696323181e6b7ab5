"""Structured per-run telemetry: manifest, JSONL step stream, summary.

A *run* is one training invocation.  Its directory layout::

    runs/20260806-114233-train/
        manifest.json   what was run (config, seeds, code versions)
        steps.jsonl     streamed per-step / validation / event records
        summary.json    final per-design metrics + merged phase timings

``steps.jsonl`` is append-streamed and flushed per record, so a run
killed mid-training still leaves every completed step on disk; the
manifest is written before the first step for the same reason.  All
records are validated against :mod:`repro.obs.schema` at write time —
a malformed record raises in the writer's stack frame instead of
surfacing as a corrupt artifact later.

:class:`NullRunLogger` is the no-telemetry stand-in: trainers call the
logger unconditionally and library users who never pass one pay two
attribute lookups per step, no I/O.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..nn.serialization import atomic_write
from .schema import validate_manifest, validate_record, validate_summary

__all__ = ["NullRunLogger", "RunLogger", "build_manifest",
           "default_run_dir", "read_records", "repair_jsonl_tail"]


def repair_jsonl_tail(path: Union[str, Path]) -> Optional[str]:
    """Truncate a torn (partially written) final line off a JSONL file.

    A process killed mid-``write`` can leave a trailing fragment — a
    line without its newline, or half a JSON object.  This drops that
    fragment in place (everything up to the last newline survives) and
    returns the discarded text, or None when the file was clean.  Only
    the *final* line is ever touched; an undecodable line in the middle
    of the file is real corruption and is left for the schema validator
    to report.
    """
    path = Path(path)
    if not path.is_file():
        return None
    data = path.read_bytes()
    if not data:
        return None
    keep = len(data)
    if not data.endswith(b"\n"):
        keep = data.rfind(b"\n") + 1  # 0 when there is no newline at all
    else:
        # Ends in a newline; the last line is complete but may still be
        # half-written JSON if the crash hit between two buffered
        # writes.  Only drop it when it does not parse.
        body = data[:-1]
        start = body.rfind(b"\n") + 1
        last = data[start:].strip()
        if last:
            try:
                json.loads(last.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                keep = start
    if keep == len(data):
        return None
    fragment = data[keep:].decode("utf-8", errors="replace")
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return fragment


def read_records(path: Union[str, Path]
                 ) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    """Parse a steps.jsonl file, tolerating a torn trailing line.

    Returns ``(records, torn_fragment)``: every line that parses as
    JSON, plus the raw text of an undecodable *final* line (None when
    the stream is clean).  An undecodable line elsewhere raises — that
    is corruption, not a crash artifact.
    """
    path = Path(path)
    lines = path.read_text("utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines) - 1:
                return records, line
            raise ValueError(
                f"{path}:{lineno + 1}: record mid-stream is not JSON "
                f"({exc})"
            ) from exc
    return records, None


def default_run_dir(tag: str = "train",
                    root: Union[str, Path] = "runs") -> Path:
    """``<root>/<timestamp>-<tag>``, uniquified if it already exists."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(root) / f"{stamp}-{tag}"
    candidate = base
    suffix = 2
    while candidate.exists():
        candidate = base.with_name(f"{base.name}-{suffix}")
        suffix += 1
    return candidate


def _git_sha() -> Optional[str]:
    """HEAD commit of the source checkout, or None outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _package_versions() -> Dict[str, Optional[str]]:
    import platform

    versions: Dict[str, Optional[str]] = {
        "python": platform.python_version(),
    }
    try:
        from importlib import metadata
    except ImportError:  # pragma: no cover - py<3.8 only
        metadata = None
    for package in ("numpy", "scipy", "repro"):
        version: Optional[str] = None
        if metadata is not None:
            try:
                version = metadata.version(package)
            except metadata.PackageNotFoundError:
                version = None
        if version is None and package == "numpy":
            import numpy as np

            version = np.__version__
        versions[package] = version
    return versions


def build_manifest(config: Any = None,
                   seeds: Optional[Mapping[str, int]] = None,
                   extra: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Assemble a run manifest (provenance record).

    Parameters
    ----------
    config:
        The training config (a dataclass such as ``TrainConfig``, or a
        plain mapping); serialised in full so two runs can be diffed
        field by field.
    seeds:
        Every seed that influenced the run.  When omitted and the
        config has a ``seed`` attribute, that one is recorded.
    extra:
        Additional top-level sections (dataset parameters, CLI args).
    """
    # Lazy import: obs stays importable without pulling the flow stack.
    from ..flow.cache import CODE_SALT

    if is_dataclass(config) and not isinstance(config, type):
        config_dict: Any = asdict(config)
    elif isinstance(config, Mapping):
        config_dict = dict(config)
    else:
        config_dict = config if config is None else vars(config)

    if seeds is None:
        seed = getattr(config, "seed", None) if config is not None else None
        seeds = {"train": seed} if seed is not None else {}

    manifest: Dict[str, Any] = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "argv": list(sys.argv),
        "train_config": config_dict,
        "seeds": dict(seeds),
        "code": {
            "code_salt": CODE_SALT,
            "git_sha": _git_sha(),
        },
        "versions": _package_versions(),
    }
    if extra:
        manifest.update({str(k): v for k, v in extra.items()})
    return manifest


class RunLogger:
    """Writes one run's telemetry into ``run_dir`` (context manager).

    Parameters
    ----------
    run_dir:
        Directory for this run's artifacts; created (with parents) if
        missing.  One logger per run — the step stream is truncated on
        construction unless ``resume`` is set.
    resume:
        Reopen an existing run for continuation: the step stream is
        opened in *append* mode after a torn trailing line (a crash
        artifact) is repaired away, and the existing manifest survives.
    resume_step:
        When resuming from a checkpoint taken at step *k*, records the
        crashed process wrote **after** that checkpoint (``step >= k``)
        are dropped before appending — the resumed run re-executes and
        re-logs those steps, and keeping both copies would corrupt the
        stream.
    """

    def __init__(self, run_dir: Union[str, Path], resume: bool = False,
                 resume_step: Optional[int] = None) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        steps_path = self.run_dir / "steps.jsonl"
        mode = "a" if resume else "w"
        if resume and steps_path.is_file():
            repair_jsonl_tail(steps_path)
            if resume_step is not None:
                self._drop_records_from(steps_path, int(resume_step))
        self._steps = open(steps_path, mode, encoding="utf-8")

    @staticmethod
    def _drop_records_from(path: Path, start_step: int) -> int:
        """Atomically rewrite ``path`` without records at/after a step.

        Records carrying no ``step`` field (events) are kept.  Returns
        the number of dropped records.
        """
        records, _ = read_records(path)
        kept = [r for r in records
                if not isinstance(r.get("step"), int)
                or r["step"] < start_step]
        dropped = len(records) - len(kept)
        if dropped:
            text = "".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in kept)
            atomic_write(path, lambda tmp: tmp.write_text(
                text, encoding="utf-8"))
        return dropped

    # -- artifacts ------------------------------------------------------
    def log_manifest(self, config: Any = None,
                     seeds: Optional[Mapping[str, int]] = None,
                     extra: Optional[Mapping[str, Any]] = None
                     ) -> Dict[str, Any]:
        """Build + persist ``manifest.json``; returns the manifest."""
        manifest = build_manifest(config=config, seeds=seeds, extra=extra)
        problems = validate_manifest(manifest)
        if problems:
            raise ValueError(f"invalid manifest: {problems}")
        self._write_json("manifest.json", manifest)
        return manifest

    def log_step(self, step: int, record: Mapping[str, Any]) -> None:
        """Stream one per-step record (losses, lr, grad norms, ...)."""
        self._emit({"kind": "step", "step": int(step), **record})

    def log_validation(self, step: int, score: float, best: bool) -> None:
        """Stream one held-out validation event."""
        self._emit({"kind": "validation", "step": int(step),
                    "score": float(score), "best": bool(best)})

    def log_event(self, kind: str, **fields: Any) -> None:
        """Stream a non-step record (``final_weights``, ``note``, ...)."""
        self._emit({"kind": kind, **fields})

    def log_summary(self, **fields: Any) -> Dict[str, Any]:
        """Persist ``summary.json``; merges in the timing registry.

        ``timings`` defaults to the process-global registry snapshot
        (which, after a ``build_designs(workers=N)``, already contains
        the merged worker timings); ``per_design`` defaults to empty.
        """
        summary = dict(fields)
        if "timings" not in summary:
            from ..util import get_timings

            summary["timings"] = get_timings()
        summary.setdefault("per_design", {})
        problems = validate_summary(summary)
        if problems:
            raise ValueError(f"invalid summary: {problems}")
        self._write_json("summary.json", summary)
        return summary

    def annotate_manifest(self, **fields: Any) -> Dict[str, Any]:
        """Merge extra top-level fields into an existing manifest.json.

        Used for after-the-fact lifecycle markers: ``interrupted: true``
        when a signal stopped the run, ``resumed_from_step`` when a
        later invocation picked it back up.  The rewrite is atomic, so
        a crash here cannot destroy the manifest either.
        """
        path = self.run_dir / "manifest.json"
        manifest: Dict[str, Any] = {}
        if path.is_file():
            manifest = json.loads(path.read_text("utf-8"))
        manifest.update({str(k): v for k, v in fields.items()})
        self._write_json("manifest.json", manifest)
        return manifest

    # -- plumbing -------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        problems = validate_record(record)
        if problems:
            raise ValueError(f"invalid telemetry record: {problems}")
        self._steps.write(json.dumps(record, sort_keys=True) + "\n")
        self._steps.flush()

    def _write_json(self, name: str, payload: Mapping[str, Any]) -> None:
        # A crash mid-write must never leave a truncated
        # manifest.json/summary.json (a resumed run needs both intact),
        # nor a stage file.
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write(self.run_dir / name,
                     lambda tmp: tmp.write_text(text, encoding="utf-8"))

    def close(self) -> None:
        if not self._steps.closed:
            self._steps.close()

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullRunLogger:
    """API-compatible logger that records nothing (the default)."""

    run_dir: Optional[Path] = None

    def log_manifest(self, config: Any = None,
                     seeds: Optional[Mapping[str, int]] = None,
                     extra: Optional[Mapping[str, Any]] = None
                     ) -> Dict[str, Any]:
        return {}

    def log_step(self, step: int, record: Mapping[str, Any]) -> None:
        pass

    def log_validation(self, step: int, score: float, best: bool) -> None:
        pass

    def log_event(self, kind: str, **fields: Any) -> None:
        pass

    def log_summary(self, **fields: Any) -> Dict[str, Any]:
        return {}

    def annotate_manifest(self, **fields: Any) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullRunLogger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass
