"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_args(self):
        args = build_parser().parse_args(["flow", "arm9", "7nm"])
        assert args.design == "arm9"
        assert args.node == "7nm"

    def test_invalid_node_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "arm9", "3nm"])

    def test_predict_args(self):
        args = build_parser().parse_args(
            ["predict", "usbf_device", "aes_cipher_top",
             "--uncertainty", "--mc-samples", "8",
             "--model", "model.npz"])
        assert args.designs == ["usbf_device", "aes_cipher_top"]
        assert args.uncertainty
        assert args.mc_samples == 8
        assert args.model == "model.npz"

    def test_predict_defaults(self):
        args = build_parser().parse_args(["predict", "usbf_device"])
        assert args.model is None
        assert args.mc_samples == 0
        assert not args.uncertainty
        assert args.repeat == 1

    def test_predict_requires_a_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_train_save_model_flag(self):
        args = build_parser().parse_args(
            ["train", "--save-model", "out.npz"])
        assert args.save_model == "out.npz"

    def test_train_checkpoint_flags(self):
        args = build_parser().parse_args(["train"])
        assert args.checkpoint_every == 25
        assert args.resume is None
        args = build_parser().parse_args(
            ["train", "--checkpoint-every", "10",
             "--resume", "runs/x"])
        assert args.checkpoint_every == 10
        assert args.resume == "runs/x"

    def test_unknown_experiment_exits_before_building(self, monkeypatch):
        """`repro experiments` parses with the runner's own arguments."""
        from repro.experiments import runner

        def no_build(**kwargs):
            raise AssertionError("built the dataset before parsing")

        monkeypatch.setattr(runner, "build_dataset", no_build)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "tabel2"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_libs(self, capsys):
        assert main(["libs"]) == 0
        out = capsys.readouterr().out
        assert "sky130_synth" in out and "asap7_synth" in out

    def test_sta_report(self, capsys):
        assert main(["sta", "usbf_device", "7nm", "--paths", "1"]) == 0
        out = capsys.readouterr().out
        assert "WNS" in out and "Startpoint:" in out


class TestReportRunCommand:
    @staticmethod
    def _write_run(run_dir):
        from repro.obs import RunLogger
        from repro.train import TrainConfig

        with RunLogger(run_dir) as logger:
            logger.log_manifest(config=TrainConfig(steps=3),
                                seeds={"train": 0})
            for t in range(3):
                logger.log_step(t, {"lr": 1e-3, "step_seconds": 0.01,
                                    "total": 2.0 - 0.5 * t})
            logger.log_event("final_weights", source="final-iterate")
            logger.log_summary(
                per_design={"usbf_device": {"r2": 0.9}},
                timings={"flow.run": {"calls": 1, "seconds": 1.0}},
                mean_r2=0.9)
        return run_dir

    def test_report_run(self, tmp_path, capsys):
        run_dir = self._write_run(tmp_path / "run")
        assert main(["report-run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "total  [first" in out
        assert "final weights: final-iterate" in out
        assert "flow.run" in out

    def test_report_run_with_diff(self, tmp_path, capsys):
        run_a = self._write_run(tmp_path / "a")
        run_b = self._write_run(tmp_path / "b")
        assert main(["report-run", str(run_a),
                     "--diff", str(run_b)]) == 0
        out = capsys.readouterr().out
        assert f"manifest diff vs {run_b}" in out

    def test_missing_run_dir_fails(self, tmp_path, capsys):
        assert main(["report-run", str(tmp_path / "absent")]) == 1
        assert "not a run directory" in capsys.readouterr().out



class TestBuildFlags:
    """Every command that builds the dataset spells its build options
    ``--build-workers N`` (N >= 1) and ``--no-cache``."""

    COMMANDS = ["train", "ladder", "predict", "serve", "experiments"]

    @staticmethod
    def parse(command, argv, monkeypatch):
        """``(build_workers, no_cache)`` as ``command`` parses ``argv``."""
        if command == "serve":
            import argparse

            from repro.serve.__main__ import add_serve_arguments

            parser = argparse.ArgumentParser()
            add_serve_arguments(parser)
            args = parser.parse_args(argv)
            return args.build_workers, args.no_cache
        if command == "experiments":
            from repro.experiments import runner

            seen = {}
            monkeypatch.setattr(runner, "run_all",
                                lambda names, **kw: seen.update(kw))
            runner.main(argv)
            return seen["workers"], not seen["use_cache"]
        positional = ["usbf_device"] if command == "predict" else []
        args = build_parser().parse_args([command, *positional, *argv])
        return args.build_workers, args.no_cache

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_spelling(self, command, monkeypatch):
        assert self.parse(command, [], monkeypatch) == (1, False)
        assert self.parse(command, ["--build-workers", "2", "--no-cache"],
                          monkeypatch) == (2, True)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("argv", [["--build-workers", "0"],
                                      ["--build-workers", "-3"],
                                      ["--workers=2"],
                                      ["--no-flow-cache"]])
    def test_bad_or_old_spelling_exits_2(self, command, argv, monkeypatch,
                                         capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.parse(command, argv, monkeypatch)
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err
