"""Crash artifacts in telemetry: torn tails, resume append, manifest notes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    RunLogger,
    load_run,
    read_records,
    repair_jsonl_tail,
    validate_run_dir,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def write_lines(path, lines, tail=""):
    path.write_text("".join(line + "\n" for line in lines) + tail,
                    encoding="utf-8")


def step_line(step, total=1.0):
    return json.dumps({"kind": "step", "step": step, "lr": 1e-3,
                       "step_seconds": 0.01, "total": total},
                      sort_keys=True)


class TestRepairJsonlTail:
    def test_clean_file_untouched(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        write_lines(path, [step_line(0), step_line(1)])
        before = path.read_bytes()
        assert repair_jsonl_tail(path) is None
        assert path.read_bytes() == before

    def test_missing_file_is_noop(self, tmp_path):
        assert repair_jsonl_tail(tmp_path / "absent.jsonl") is None

    def test_truncates_line_without_newline(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        write_lines(path, [step_line(0)], tail='{"kind": "step", "ste')
        fragment = repair_jsonl_tail(path)
        assert fragment == '{"kind": "step", "ste'
        records, torn = read_records(path)
        assert torn is None
        assert [r["step"] for r in records] == [0]

    def test_truncates_complete_but_unparseable_final_line(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        write_lines(path, [step_line(0), '{"kind": "step", "broken'])
        fragment = repair_jsonl_tail(path)
        assert "broken" in fragment
        records, torn = read_records(path)
        assert torn is None
        assert len(records) == 1

    def test_midstream_corruption_left_alone(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        write_lines(path, [step_line(0), "not json at all", step_line(2)])
        before = path.read_bytes()
        assert repair_jsonl_tail(path) is None
        assert path.read_bytes() == before  # not a tail problem
        with pytest.raises(ValueError, match="mid-stream"):
            read_records(path)


class TestResumeLogger:
    def test_resume_appends_after_repair(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01,
                                "total": 2.0})
        steps_path = run_dir / "steps.jsonl"
        # Simulate a crash mid-write of step 1.
        with open(steps_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "step", "step": 1, "to')
        with RunLogger(run_dir, resume=True, resume_step=1) as logger:
            logger.log_step(1, {"lr": 1e-3, "step_seconds": 0.01,
                                "total": 1.5})
        records, torn = read_records(steps_path)
        assert torn is None
        assert [r["step"] for r in records] == [0, 1]

    def test_resume_drops_steps_past_checkpoint(self, tmp_path):
        """The crashed process logged steps 0..4 but the checkpoint is
        at 3: resuming re-executes 3 and 4, so the stale copies go."""
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            for t in range(5):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                    "total": 5.0 - t})
            logger.log_event("note", message="events carry no step")
        with RunLogger(run_dir, resume=True, resume_step=3) as logger:
            logger.log_step(3, {"lr": 1e-3, "step_seconds": 0.01,
                                "total": 99.0})
        records, _ = read_records(run_dir / "steps.jsonl")
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [0, 1, 2, 3]
        assert steps[-1]["total"] == 99.0  # the re-logged copy survives
        assert any(r["kind"] == "note" for r in records)  # events kept

    def test_fresh_logger_still_truncates(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01})
        with RunLogger(run_dir) as logger:  # resume NOT set
            logger.log_step(0, {"lr": 2e-3, "step_seconds": 0.01})
        records, _ = read_records(run_dir / "steps.jsonl")
        assert len(records) == 1
        assert records[0]["lr"] == 2e-3

    def test_annotate_manifest_merges(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_manifest(seeds={"train": 0})
            logger.annotate_manifest(interrupted=True,
                                     interrupted_at_step=7)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert manifest["interrupted_at_step"] == 7
        assert manifest["seeds"] == {"train": 0}  # original fields kept
        with RunLogger(run_dir, resume=True) as logger:
            logger.annotate_manifest(interrupted=False,
                                     resumed_from_step=7)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["interrupted"] is False
        assert manifest["resumed_from_step"] == 7


class TestValidationWithTornTail:
    def make_torn_run(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_manifest(seeds={"train": 0})
            logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01})
            logger.log_summary(per_design={}, timings={})
        with open(run_dir / "steps.jsonl", "a", encoding="utf-8") as f:
            f.write('{"kind": "step", "st')
        return run_dir

    def test_torn_tail_is_warning_not_error(self, tmp_path):
        run_dir = self.make_torn_run(tmp_path)
        warnings = []
        assert validate_run_dir(run_dir, warnings=warnings) == []
        assert any("torn trailing line" in w for w in warnings)

    def test_midstream_corruption_is_error(self, tmp_path):
        run_dir = self.make_torn_run(tmp_path)
        write_lines(run_dir / "steps.jsonl",
                    [step_line(0), "garbage", step_line(2)])
        problems = validate_run_dir(run_dir)
        assert problems
        assert any("not JSON" in p for p in problems)

    def test_cli_validator_exits_zero_on_torn_tail(self, tmp_path):
        run_dir = self.make_torn_run(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", str(run_dir)],
            capture_output=True, text=True, env={"PYTHONPATH": SRC,
                                                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "warning" in proc.stdout
        assert "torn trailing line" in proc.stdout

    def test_load_run_surfaces_torn_tail(self, tmp_path):
        run_dir = self.make_torn_run(tmp_path)
        run = load_run(run_dir)
        assert run["torn_tail"].startswith('{"kind"')
        assert [r["step"] for r in run["records"]] == [0]


class TestAtomicManifestWrite:
    def test_crash_during_write_preserves_manifest(self, tmp_path,
                                                   monkeypatch):
        import os as os_mod

        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_manifest(seeds={"train": 0})
            before = (run_dir / "manifest.json").read_bytes()

            def dying_replace(src, dst):
                raise OSError("simulated kill")

            monkeypatch.setattr(os_mod, "replace", dying_replace)
            with pytest.raises(OSError):
                logger.annotate_manifest(interrupted=True)
            monkeypatch.undo()
            assert (run_dir / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in run_dir.iterdir()) == \
            ["manifest.json", "steps.jsonl"]

    def test_failed_writes_leave_no_stage_file(self, tmp_path,
                                               monkeypatch):
        """summary.json and the rewritten step stream are staged and
        renamed by the same helper: a failed rename removes the stage
        file and leaves the stream as it was."""
        import os as os_mod

        def dying_replace(src, dst):
            raise OSError("simulated kill")

        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            for t in range(2):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01})
            monkeypatch.setattr(os_mod, "replace", dying_replace)
            with pytest.raises(OSError):
                logger.log_summary(timings={})
        stream = (run_dir / "steps.jsonl").read_bytes()
        with pytest.raises(OSError):
            RunLogger(run_dir, resume=True, resume_step=1)
        monkeypatch.undo()
        assert [p.name for p in run_dir.iterdir()] == ["steps.jsonl"]
        assert (run_dir / "steps.jsonl").read_bytes() == stream
