"""RunLogger round-trips, manifest provenance, and the null logger."""

import json

import pytest

from repro.flow.cache import CODE_SALT
from repro.obs import (
    NullRunLogger,
    RunLogger,
    build_manifest,
    default_run_dir,
    load_run,
    validate_run_dir,
)
from repro.train import TrainConfig
from repro.util import reset_timings, timed


class TestRunLogger:
    def test_full_run_round_trips(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunLogger(run_dir) as logger:
            logger.log_manifest(config=TrainConfig(steps=3),
                                seeds={"model": 0, "train": 0})
            for t in range(3):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                    "total": 3.0 - t, "warmup": t == 0})
            logger.log_validation(2, score=0.75, best=True)
            logger.log_event("final_weights", source="best-checkpoint")
            logger.log_summary(per_design={"jpeg": {"r2": 0.9}},
                               timings={}, mean_r2=0.9)
        assert validate_run_dir(run_dir) == []
        run = load_run(run_dir)
        steps = [r for r in run["records"] if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [0, 1, 2]
        assert steps[0]["warmup"] is True
        (val,) = [r for r in run["records"] if r["kind"] == "validation"]
        assert val == {"kind": "validation", "step": 2, "score": 0.75,
                       "best": True}
        (final,) = [r for r in run["records"]
                    if r["kind"] == "final_weights"]
        assert final["source"] == "best-checkpoint"
        assert run["summary"]["per_design"]["jpeg"]["r2"] == 0.9

    def test_steps_streamed_line_by_line(self, tmp_path):
        """Each record is flushed on write — a killed run keeps them."""
        logger = RunLogger(tmp_path / "run")
        logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01})
        raw = (tmp_path / "run" / "steps.jsonl").read_text()
        assert json.loads(raw)["step"] == 0  # visible before close()
        logger.close()

    def test_invalid_record_raises_at_write_time(self, tmp_path):
        with RunLogger(tmp_path / "run") as logger:
            with pytest.raises(ValueError, match="telemetry"):
                logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01,
                                    "payload": {"not": "scalar"}})
            with pytest.raises(ValueError, match="telemetry"):
                logger.log_event("unknown_kind", x=1)

    def test_invalid_summary_raises(self, tmp_path):
        with RunLogger(tmp_path / "run") as logger:
            with pytest.raises(ValueError, match="summary"):
                logger.log_summary(per_design="not-a-mapping", timings={})

    def test_summary_defaults_to_timing_registry(self, tmp_path):
        reset_timings()
        with timed("obs.test.phase"):
            pass
        with RunLogger(tmp_path / "run") as logger:
            summary = logger.log_summary(per_design={})
        assert "obs.test.phase" in summary["timings"]
        assert summary["timings"]["obs.test.phase"]["calls"] == 1
        reset_timings()


class TestManifest:
    def test_manifest_is_complete_provenance(self, tmp_path):
        config = TrainConfig(steps=7, lr=5e-4, seed=3)
        with RunLogger(tmp_path / "run") as logger:
            manifest = logger.log_manifest(
                config=config, seeds={"model": 1, "train": 3, "data": 0})
        on_disk = json.loads(
            (tmp_path / "run" / "manifest.json").read_text())
        assert on_disk == manifest
        # The full config, field by field (so runs can be diffed).
        assert manifest["train_config"] == {**config.__dict__}
        assert manifest["seeds"] == {"model": 1, "train": 3, "data": 0}
        assert manifest["code"]["code_salt"] == CODE_SALT
        assert manifest["versions"]["python"]
        assert manifest["versions"]["numpy"]

    def test_seeds_default_from_config(self):
        manifest = build_manifest(config=TrainConfig(seed=42))
        assert manifest["seeds"] == {"train": 42}

    def test_mapping_config_accepted(self):
        manifest = build_manifest(config={"steps": 2}, seeds={"train": 0})
        assert manifest["train_config"] == {"steps": 2}

    def test_extra_sections_merged(self):
        manifest = build_manifest(config=TrainConfig(),
                                  extra={"dataset": {"scale": 1.0}})
        assert manifest["dataset"] == {"scale": 1.0}


class TestDefaultRunDir:
    def test_layout_and_uniquification(self, tmp_path):
        first = default_run_dir(tag="smoke", root=tmp_path)
        assert first.parent == tmp_path
        assert first.name.endswith("-smoke")
        first.mkdir(parents=True)
        second = default_run_dir(tag="smoke", root=tmp_path)
        assert second != first
        assert second.name.startswith(first.name)


class TestNullRunLogger:
    def test_api_compatible_and_silent(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with NullRunLogger() as logger:
            assert logger.log_manifest(config=TrainConfig()) == {}
            logger.log_step(0, {"lr": 1.0, "step_seconds": 0.0})
            logger.log_validation(0, 0.5, False)
            logger.log_event("final_weights", source="best-checkpoint")
            assert logger.log_summary() == {}
        assert list(tmp_path.iterdir()) == []  # wrote nothing
