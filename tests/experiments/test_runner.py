"""Tests for the experiment runner CLI."""

import io

import pytest

from repro.experiments.runner import EXPERIMENTS, main, run_all


class TestRunner:
    def test_experiment_registry_complete(self):
        assert {"table1", "table2", "table3",
                "fig1", "fig6", "fig8"} <= set(EXPERIMENTS)

    def test_run_all_subset(self):
        stream = io.StringIO()
        run_all(["table1", "fig6"], stream=stream)
        out = stream.getvalue()
        assert "=== table1" in out
        assert "=== fig6" in out
        assert "table2" not in out

    def test_run_training_experiment_fast(self):
        stream = io.StringIO()
        run_all(["fig8"], steps=3, stream=stream)
        out = stream.getvalue()
        assert "Full" in out

    def test_main_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["not_an_experiment"])

    def test_main_takes_names_or_runs_everything(self, monkeypatch):
        """No names means every experiment (``choices=`` on a
        ``nargs="*"`` positional used to refuse the empty list)."""
        from repro.experiments import runner

        calls = []
        monkeypatch.setattr(runner, "run_all",
                            lambda names, **kwargs: calls.append(names))
        assert main(["--steps", "3"]) == 0
        assert main(["table2", "reverse"]) == 0
        assert calls == [None, ["table2", "reverse"]]

    def test_reverse_alone_builds_no_table1_dataset(self, monkeypatch):
        """Reverse transfer builds its own designs; the Table-1 set is
        built only for an experiment that takes it."""
        from repro.experiments import runner

        def no_build(**kwargs):
            raise AssertionError("the Table-1 dataset was built")

        monkeypatch.setattr(runner, "build_dataset", no_build)
        monkeypatch.setattr(runner, "run_reverse_transfer",
                            lambda **kwargs: {"arm9": 0.5})
        stream = io.StringIO()
        run_all(["reverse"], steps=2, stream=stream)
        assert "arm9:" in stream.getvalue()
