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
