"""White-box tests for the OursTrainer loop mechanics."""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.infer import weight_digest
from repro.model import TimingPredictor
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import FusedDesignBatch, OursTrainer, TrainConfig


@pytest.fixture(scope="module")
def designs():
    libraries = {"130nm": make_sky130_library(), "7nm": make_asap7_library()}
    vocab = GateVocabulary(list(libraries.values()))
    out = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in out])
    return out


@pytest.fixture(scope="module")
def in_features(designs):
    return designs[0].graph.features.shape[1]


class TestWarmup:
    def test_warmup_steps_have_zero_alignment_terms(self, designs,
                                                    in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=10, warmup_fraction=0.5, seed=0,
                          holdout_fraction=0.0)
        history = OursTrainer(model, designs, cfg).fit()
        for h in history[:5]:
            assert h["total"] == pytest.approx(h["elbo"])
        # After warmup the alignment losses contribute.
        assert history[-1]["total"] != pytest.approx(history[-1]["elbo"])

    def test_zero_warmup(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=4, warmup_fraction=0.0, seed=0,
                          holdout_fraction=0.0)
        history = OursTrainer(model, designs, cfg).fit()
        assert history[0]["total"] != pytest.approx(history[0]["elbo"])


class TestLrDecay:
    def test_lr_restored_after_fit(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=5, lr=1e-3, seed=0,
                          holdout_fraction=0.0)
        trainer = OursTrainer(model, designs, cfg)
        trainer.fit()
        assert trainer.optimizer.lr == pytest.approx(1e-3)


class TestHoldoutIntegration:
    def test_holdout_excluded_from_training_batches(self, designs,
                                                    in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=3, seed=0, holdout_fraction=0.3,
                          batch_endpoints=1000)
        trainer = OursTrainer(model, designs, cfg)
        target = trainer.target[0]
        pool = trainer.selector.training_pool(target)
        val = trainer.selector.validation_pool(target)
        assert len(pool) + len(val) == target.num_endpoints
        trainer.fit()

    def test_disabled_holdout(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        cfg = TrainConfig(steps=2, seed=0, holdout_fraction=0.0)
        trainer = OursTrainer(model, designs, cfg)
        assert trainer.selector is None
        trainer.fit()


class TestNodeObsVar:
    def test_matches_label_variance(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, designs,
                              TrainConfig(steps=1, seed=0))
        expected_7 = designs[0].labels.var()
        assert trainer.node_obs_var["7nm"] == pytest.approx(expected_7)
        expected_130 = designs[1].labels.var()
        assert trainer.node_obs_var["130nm"] == pytest.approx(
            expected_130
        )


class TestStepImages:
    def test_one_buffer_per_signature(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, designs,
                              TrainConfig(steps=1, seed=0,
                                          holdout_fraction=0.0))
        first = trainer._step_inputs(trainer._sample_subsets(),
                                     warmup=False)["images"]
        subsets = trainer._sample_subsets()
        again = trainer._step_inputs(subsets, warmup=False)["images"]
        assert again is first
        expected = np.concatenate([
            design.path_image_stack()[subset]
            for design, subset in zip(trainer.source + trainer.target,
                                      subsets)])
        assert np.array_equal(again, expected)
        # Another signature gets a buffer of its own.
        fewer = [subset[:5] for subset in subsets]
        other = trainer._step_inputs(fewer, warmup=False)["images"]
        assert other is not first and len(other) == 10
        assert np.array_equal(first, expected)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_reused_buffer_changes_no_bits(self, designs, in_features,
                                           monkeypatch, compiled):
        def run():
            model = TimingPredictor(in_features, seed=0)
            cfg = TrainConfig(steps=4, seed=0, holdout_fraction=0.0,
                              compile=compiled)
            history = OursTrainer(model, designs, cfg).fit()
            return [h["total"] for h in history], weight_digest(model)

        reused = run()
        gather = FusedDesignBatch.stacked_path_images
        monkeypatch.setattr(
            FusedDesignBatch, "stacked_path_images",
            lambda self, subsets, out=None: gather(self, subsets))
        assert run() == reused
