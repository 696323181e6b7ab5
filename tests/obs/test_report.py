"""ASCII rendering of run telemetry (``repro report-run``)."""

from repro.obs import (
    RunLogger,
    manifest_diff,
    render_loss_curve,
    render_run,
)
from repro.train import TrainConfig


def _write_run(run_dir, steps=8, tag_config=None):
    config = tag_config or TrainConfig(steps=steps)
    with RunLogger(run_dir) as logger:
        logger.log_manifest(config=config, seeds={"train": config.seed})
        for t in range(steps):
            logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                "total": 10.0 / (t + 1), "elbo": 9.0 / (t + 1),
                                "warmup": False})
        logger.log_validation(steps - 1, score=0.8, best=True)
        logger.log_event("final_weights", source="final-iterate")
        logger.log_summary(
            per_design={"jpeg": {"r2": 0.91}, "spiMaster": {"r2": 0.84}},
            timings={"train.features": {"calls": steps, "seconds": 1.5},
                     "flow.run": {"calls": 2, "seconds": 4.0}},
            mean_r2=0.875)
    return run_dir


class TestLossCurve:
    def test_empty_series(self):
        assert "(no data)" in render_loss_curve([], title="loss")

    def test_constant_series(self):
        out = render_loss_curve([2.0, 2.0, 2.0], title="flat")
        assert "(constant)" in out
        assert "flat" in out

    def test_annotations_and_size(self):
        values = [float(v) for v in range(100, 0, -1)]
        out = render_loss_curve(values, title="total", width=40, height=6)
        assert "first 100" in out and "last 1" in out
        assert "min" in out and "max" in out
        # Bucket-averaged down to the requested width.
        chart_rows = [l for l in out.splitlines() if "|" in l]
        assert len(chart_rows) == 6
        assert all(len(l.split("|", 1)[1]) <= 40 for l in chart_rows)
        assert "steps 0..99" in out

    def test_extremes_land_inside_the_chart(self):
        out = render_loss_curve([1.0, 5.0, 3.0], title="t", height=4)
        rows = [l.split("|", 1)[1] for l in out.splitlines() if "|" in l]
        assert "*" in rows[0]   # max in the top row
        assert "*" in rows[-1]  # min in the bottom row


class TestManifestDiff:
    def test_identical_manifests_agree(self):
        m = {"train_config": {"steps": 5}, "created": "now"}
        assert "agree" in manifest_diff(m, m)

    def test_changed_field_shown_with_both_values(self):
        a = {"train_config": {"steps": 5, "lr": 1e-3}}
        b = {"train_config": {"steps": 9, "lr": 1e-3}}
        out = manifest_diff(a, b)
        assert "~ train_config.steps: 5 -> 9" in out
        assert "lr" not in out  # unchanged fields stay silent

    def test_one_sided_fields_labelled(self):
        out = manifest_diff({"x": 1}, {"y": 2}, "left", "right")
        assert "- x: 1  (only in left)" in out
        assert "+ y: 2  (only in right)" in out

    def test_created_and_argv_ignored(self):
        a = {"created": "t1", "argv": ["a"], "seeds": {"train": 0}}
        b = {"created": "t2", "argv": ["b"], "seeds": {"train": 0}}
        assert "agree" in manifest_diff(a, b)


class TestRenderRun:
    def test_full_report_sections(self, tmp_path):
        run_dir = _write_run(tmp_path / "run")
        out = render_run(run_dir)
        assert "code_salt" in out
        assert "config:" in out and "steps=8" in out
        assert "total  [first" in out   # loss chart with annotations
        assert "elbo  [first" in out
        assert "validation R^2" in out and "0.8000 *" in out
        assert "final weights: final-iterate" in out
        assert "jpeg" in out and "r2=0.9100" in out
        assert "mean_r2: 0.875" in out
        assert "flow.run" in out       # worker-phase timings included
        assert "train.features" in out

    def test_bookkeeping_fields_are_not_charted(self, tmp_path):
        run_dir = _write_run(tmp_path / "run")
        out = render_run(run_dir)
        assert "lr  [first" not in out
        assert "step_seconds  [first" not in out

    def test_legacy_parallel_telemetry_is_not_charted(self, tmp_path):
        """Older steps.jsonl files (runs of the since-removed
        data-parallel trainer) carry per-step execution facts; they
        draw no chart, while the loss series still do."""
        with RunLogger(tmp_path / "run") as logger:
            for t in range(3):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                    "total": 1.0 / (t + 1), "workers": 2,
                                    "shard_seconds_max": 0.02,
                                    "shard_seconds_mean": 0.015})
        out = render_run(tmp_path / "run")
        assert "total  [first" in out
        for field in ("workers", "shard_seconds_max",
                      "shard_seconds_mean"):
            assert f"{field}  [first" not in out

    def test_empty_dir_renders_placeholders(self, tmp_path):
        out = render_run(tmp_path)
        assert "(no manifest.json)" in out
        assert "(no step records)" in out

    def test_diff_section(self, tmp_path):
        run_a = _write_run(tmp_path / "a", steps=4)
        run_b = _write_run(tmp_path / "b", steps=4,
                           tag_config=TrainConfig(steps=4, lr=9e-4))
        out = render_run(run_a, diff_against=run_b)
        assert f"manifest diff vs {run_b}" in out
        assert "~ train_config.lr:" in out

    def test_last_final_weights_event_wins(self, tmp_path):
        """PT-FT emits one event per stage; report the returned weights."""
        with RunLogger(tmp_path / "run") as logger:
            logger.log_step(0, {"lr": 1e-3, "step_seconds": 0.01,
                                "loss": 1.0, "stage": "pretrain"})
            logger.log_event("final_weights", source="final-iterate",
                             stage="pretrain")
            logger.log_event("final_weights", source="best-checkpoint",
                             stage="finetune")
        out = render_run(tmp_path / "run")
        assert "final weights: best-checkpoint" in out
