"""Plumbing tests for the extension experiments."""

import numpy as np
import pytest

from repro.experiments import (
    build_dataset,
    format_calibration,
    format_reverse_transfer,
    run_reverse_transfer,
    run_uncertainty_calibration,
)
from repro.flow import PnRFlow
from repro.model import TimingPredictor
from repro.netlist import TEST_SPLIT
from repro.train import OursTrainer

FAST_STEPS = 4


@pytest.fixture(scope="module")
def dataset():
    return build_dataset()


class TestUncertaintyCalibration:
    def test_rows_and_format(self, dataset):
        rows = run_uncertainty_calibration(dataset, seed=0,
                                           steps=FAST_STEPS,
                                           mc_samples=8)
        assert len(rows) == len(dataset.test)
        for row in rows:
            assert np.isfinite(row["mean_abs_error"])
            assert row["mean_sigma"] >= 0
        text = format_calibration(rows)
        assert "corr" in text


class TestReverseTransfer:
    """The designs come through the default flow cache, so once it is
    warm these runs build nothing."""

    def test_runs_and_formats(self):
        results = run_reverse_transfer(seed=0, steps=FAST_STEPS,
                                       resolution=16)
        assert "average" in results
        assert all(np.isfinite(v) for v in results.values())
        text = format_reverse_transfer(results)
        assert "Reverse transfer" in text

    def test_trains_toward_130nm_from_the_cache(self, monkeypatch):
        """The trainer's target is 130nm (its checkpoint holdout is
        smallboom@130nm), every test design is scored at 130nm, and a
        second run into the same cache runs no flow."""
        trainers, scored = [], []
        fit, predict = OursTrainer.fit, TimingPredictor.predict

        def spy_fit(trainer, *args, **kwargs):
            trainers.append(trainer)
            return fit(trainer, *args, **kwargs)

        def spy_predict(model, design, *args, **kwargs):
            scored.append((design.name, design.node))
            return predict(model, design, *args, **kwargs)

        monkeypatch.setattr(OursTrainer, "fit", spy_fit)
        monkeypatch.setattr(TimingPredictor, "predict", spy_predict)
        first = run_reverse_transfer(seed=0, steps=FAST_STEPS,
                                     resolution=16)
        (trainer,) = trainers
        assert trainer.target_node == "130nm"
        assert trainer.node_order == ["7nm", "130nm"]
        assert [(d.name, d.node) for d in trainer.selector.val_designs] \
            == [("smallboom", "130nm")]
        # (The trainer's validation predicts smallboom's held-out paths.)
        assert [call for call in scored if call[0] in TEST_SPLIT] == \
            [(name, "130nm") for name in TEST_SPLIT]
        assert list(first) == list(TEST_SPLIT) + ["average"]

        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran on a warm cache")

        monkeypatch.setattr(PnRFlow, "run", no_flow)
        again = run_reverse_transfer(seed=0, steps=FAST_STEPS,
                                     resolution=16)
        assert again == first
