"""K-node trainer behaviour and the K=2 bit-equivalence gate.

The generalized trainer must degrade *exactly* to the two-node
pipeline: with ``nodes=["130nm", "7nm"]`` the whole loss stream and
the final weights are bit-for-bit (``np.array_equal``) the legacy
run's.  A K=3 ladder must train end to end with per-node grouping.
"""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.techlib import NodeLadder
from repro.train import OursTrainer, TrainConfig

FAST = dict(steps=6, lr=3e-3, batch_endpoints=24, seed=0,
            gamma1=1.0, gamma2=30.0)

#: Loss-stream keys that must match bitwise (timing keys excluded).
STREAM_KEYS = ("total", "elbo", "contrastive", "cmd", "lr",
               "grad_norm", "grad_norm_clipped", "warmup")


@pytest.fixture(scope="module")
def two_node_designs():
    """Tiny designs built against the two-anchor ladder's libraries."""
    ladder = NodeLadder(node_nms=(130.0, 7.0))
    libraries = ladder.libraries()
    vocab = GateVocabulary(list(libraries.values()))
    designs = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("linkruncca", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in designs])
    return designs


@pytest.fixture(scope="module")
def ladder3_designs():
    """One design per node of a 3-node ladder (130 -> 45 -> 7)."""
    ladder = NodeLadder(node_nms=(130.0, 45.0, 7.0))
    libraries = ladder.libraries()
    vocab = GateVocabulary(list(libraries.values()))
    designs = [
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("linkruncca", "45nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in designs])
    return designs


def _train(designs, **config_kwargs):
    in_features = designs[0].graph.features.shape[1]
    model = TimingPredictor(in_features, seed=0)
    trainer = OursTrainer(model, designs,
                          TrainConfig(**{**FAST, **config_kwargs}))
    history = trainer.fit()
    weights = {name: tensor.data.copy()
               for name, tensor in model.named_tensors()}
    return trainer, history, weights


class TestK2BitEquivalence:
    def test_explicit_nodes_reproduce_legacy_run_exactly(
            self, two_node_designs):
        """`nodes=["130nm","7nm"]` is the legacy two-node trainer,
        bit for bit: same loss stream, same final weights."""
        _, legacy_history, legacy_weights = _train(two_node_designs)
        _, ladder_history, ladder_weights = _train(
            two_node_designs, nodes=["130nm", "7nm"],
            target_node="7nm")
        assert len(legacy_history) == len(ladder_history)
        for legacy, ladder in zip(legacy_history, ladder_history):
            for key in STREAM_KEYS:
                assert np.array_equal(legacy[key], ladder[key]), key
        assert legacy_weights.keys() == ladder_weights.keys()
        for name in legacy_weights:
            assert np.array_equal(legacy_weights[name],
                                  ladder_weights[name]), name

    def test_node_grouping_matches_legacy_split(self, two_node_designs):
        trainer, _, _ = _train(two_node_designs, steps=1)
        assert trainer.node_order == ["130nm", "7nm"]
        assert [d.name for d in trainer.source] == \
            ["spiMaster", "linkruncca"]
        assert [d.name for d in trainer.target] == ["usbf_device"]


class TestKNodeTrainer:
    def test_three_node_ladder_trains(self, ladder3_designs):
        trainer, history, _ = _train(
            ladder3_designs, steps=3,
            nodes=["130nm", "45nm", "7nm"], target_node="7nm")
        assert trainer.node_order == ["130nm", "45nm", "7nm"]
        assert trainer.target_node == "7nm"
        assert [d.node for d in trainer.source] == ["130nm", "45nm"]
        for record in history:
            for key in ("total", "elbo", "contrastive", "cmd"):
                assert np.isfinite(record[key]), key

    def test_checkpoint_extra_records_chain(self, ladder3_designs,
                                            tmp_path):
        from repro.train import load_checkpoint

        trainer, _, _ = _train(
            ladder3_designs, steps=1,
            nodes=["130nm", "45nm", "7nm"], target_node="7nm")
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(step=1, path=path)
        extra = load_checkpoint(path).extra
        assert extra["nodes"] == ["130nm", "45nm", "7nm"]
        assert extra["target_node"] == "7nm"

    def test_unknown_node_in_designs_rejected(self, ladder3_designs):
        with pytest.raises(ValueError, match="45nm"):
            _train(ladder3_designs, steps=1,
                   nodes=["130nm", "7nm"], target_node="7nm")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(nodes=["7nm"], target_node="7nm")
        with pytest.raises(ValueError):
            TrainConfig(nodes=["130nm", "7nm"], target_node="45nm")
        with pytest.raises(ValueError):
            TrainConfig(nodes=["7nm", "7nm"], target_node="7nm")


class TestLadderEvalSmoke:
    def test_leave_one_node_out_study(self, ladder3_designs):
        """run_ladder_study end to end on an injected tiny dataset."""
        from repro.experiments import run_ladder_study
        from repro.experiments import ExperimentDataset

        ladder = NodeLadder(node_nms=(130.0, 45.0, 7.0))
        dataset = ExperimentDataset(
            train=list(ladder3_designs),
            test=[d for d in ladder3_designs if d.node == "7nm"],
            in_features=ladder3_designs[0].graph.features.shape[1],
            norm_params={},
            ladder=ladder,
            target_label="7nm",
        )
        results = run_ladder_study(dataset=dataset, steps=2, seed=0)
        assert results["nodes"] == ["130nm", "45nm", "7nm"]
        assert results["target"] == "7nm"
        assert np.isfinite(results["main"]["average"])
        # Both source nodes get a leave-one-out retrain.
        assert sorted(results["leave_one_out"]) == ["130nm", "45nm"]
        for label in ("130nm", "45nm"):
            assert "loo_delta_r2" in results["per_node"][label]
        assert results["per_node"]["7nm"]["role"] == "target"

        from repro.experiments import format_ladder_study

        text = format_ladder_study(results)
        assert "Ladder study" in text and "Leave-one-node-out" in text
