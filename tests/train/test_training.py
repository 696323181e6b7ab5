"""Tests for the trainer and the baseline strategies (tiny, fast runs)."""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import (
    OursTrainer,
    TrainConfig,
    evaluate_per_design,
    measure_inference_runtime,
    predict_head_for_node,
    sample_endpoints,
    split_by_node,
    train_adv_only,
    train_ours,
    train_param_share,
    train_pt_ft,
    train_simple_merge,
)

FAST = TrainConfig(steps=6, lr=3e-3, batch_endpoints=24, seed=0,
                   gamma1=1.0, gamma2=30.0)


@pytest.fixture(scope="module")
def tiny_designs():
    libraries = {"130nm": make_sky130_library(), "7nm": make_asap7_library()}
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
def in_features(tiny_designs):
    return tiny_designs[0].graph.features.shape[1]


class TestBatching:
    def test_sample_endpoints_respects_budget(self, tiny_designs):
        rng = np.random.default_rng(0)
        d = tiny_designs[0]
        subset = sample_endpoints(d, 4, rng)
        assert len(subset) == min(4, d.num_endpoints)
        assert len(set(subset.tolist())) == len(subset)

    def test_sample_all_when_small(self, tiny_designs):
        rng = np.random.default_rng(0)
        d = tiny_designs[0]
        subset = sample_endpoints(d, 10_000, rng)
        np.testing.assert_array_equal(subset,
                                      np.arange(d.num_endpoints))

    def test_split_by_node(self, tiny_designs):
        source, target = split_by_node(tiny_designs)
        assert [d.node for d in source] == ["130nm", "130nm"]
        assert [d.node for d in target] == ["7nm"]


class TestOursTrainer:
    def test_loss_decreases(self, tiny_designs, in_features):
        # warmup_fraction=0 keeps the loss definition constant across the
        # run so early/late totals are comparable.
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs,
                              TrainConfig(**{**FAST.__dict__, "steps": 12,
                                             "warmup_fraction": 0.0}))
        history = trainer.fit()
        first = np.mean([h["total"] for h in history[:3]])
        last = np.mean([h["total"] for h in history[-3:]])
        assert last < first

    def test_history_keys(self, tiny_designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs, FAST)
        history = trainer.fit(steps=2)
        assert {"total", "elbo", "contrastive", "cmd"} <= set(history[0])

    def test_priors_finalized_after_fit(self, tiny_designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        OursTrainer(model, tiny_designs, FAST).fit(steps=2)
        pred = model.predict(tiny_designs[0])
        assert pred.shape == (tiny_designs[0].num_endpoints,)
        assert np.isfinite(pred).all()

    def test_single_node_rejected(self, tiny_designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        with pytest.raises(ValueError):
            OursTrainer(model, tiny_designs[:1], FAST)

    def test_node_obs_var_computed(self, tiny_designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs, FAST)
        assert trainer.node_obs_var["130nm"] > trainer.node_obs_var["7nm"]

    def test_train_ours_ablation_flags(self, tiny_designs, in_features):
        full = train_ours(tiny_designs, in_features, FAST)
        da_only = train_ours(tiny_designs, in_features, FAST,
                             use_bayesian=False)
        bayes_only = train_ours(tiny_designs, in_features, FAST,
                                use_disentangle_align=False)
        for model in (full, da_only, bayes_only):
            pred = model.predict(tiny_designs[0])
            assert np.isfinite(pred).all()
        # The Bayesian-off variant has a pinned near-zero weight variance.
        _, log_var = da_only.readout.weight_distribution(
            __import__("repro.nn", fromlist=["Tensor"]).Tensor(
                np.zeros((1, da_only.feature_size)))
        )
        assert log_var.data.max() < -8.0


class TestFinalWeights:
    """The final weights come from exactly one recorded source."""

    def test_selection_path_reported(self, tiny_designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs, FAST)
        trainer.fit(steps=2)
        assert trainer.final_weights_source in ("best-checkpoint",
                                                "final-iterate")

    def test_no_selection_keeps_final_iterate(self, tiny_designs,
                                              in_features):
        config = TrainConfig(**{**FAST.__dict__, "holdout_fraction": 0.0})
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs, config)
        trainer.fit(steps=2)
        assert trainer.final_weights_source == "final-iterate"

    def test_step_records_lr_and_grad_norm(self, tiny_designs,
                                           in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, tiny_designs, FAST)
        history = trainer.fit(steps=2)
        record = history[0]
        assert {"lr", "grad_norm", "grad_norm_clipped", "warmup",
                "step_seconds"} <= set(record)
        assert record["grad_norm_clipped"] <= FAST.grad_clip + 1e-12
        assert record["grad_norm_clipped"] <= record["grad_norm"] + 1e-12


class TestBaselineStrategies:
    def test_adv_only_trains_on_target_only(self, tiny_designs, in_features):
        model = train_adv_only(tiny_designs, in_features, FAST)
        pred = model.predict(tiny_designs[0])
        assert np.isfinite(pred).all()

    def test_adv_only_requires_target(self, tiny_designs, in_features):
        with pytest.raises(ValueError):
            train_adv_only(tiny_designs[1:], in_features, FAST)

    def test_simple_merge(self, tiny_designs, in_features):
        model = train_simple_merge(tiny_designs, in_features, FAST)
        assert len(model.heads) == 1

    def test_param_share_two_heads(self, tiny_designs, in_features):
        model = train_param_share(tiny_designs, in_features, FAST)
        assert len(model.heads) == 2
        p7 = predict_head_for_node(model, tiny_designs[0])
        p130 = predict_head_for_node(model, tiny_designs[1])
        assert np.isfinite(p7).all() and np.isfinite(p130).all()

    def test_pt_ft_requires_both_nodes(self, tiny_designs, in_features):
        with pytest.raises(ValueError):
            train_pt_ft(tiny_designs[:1], in_features, FAST)

    def test_pt_ft_improves_on_target(self, tiny_designs, in_features):
        """Finetuning moves predictions toward the 7nm scale."""
        from repro.nn import functional as F
        from repro.nn import Tensor

        model = train_pt_ft(tiny_designs, in_features, FAST)
        target = tiny_designs[0]
        pred = model.predict(target)
        # After finetuning, predictions live on the 7nm scale, not 130nm.
        assert abs(pred.mean() - target.labels.mean()) \
            < abs(pred.mean() - tiny_designs[1].labels.mean())

    def test_training_reduces_mse(self, tiny_designs, in_features):
        from repro.train.strategies import _run_loop
        from repro.model import DAC23Model

        model = DAC23Model(in_features, seed=0)
        rng = np.random.default_rng(0)
        losses = _run_loop(model, tiny_designs[:1], 15, FAST,
                           lambda d: 0, rng)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])


class TestOneBlasThread:
    """Both trainers' steps run every BLAS call on one thread, so their
    losses do not depend on the count the process starts at."""

    @pytest.fixture()
    def blas_seen(self, monkeypatch):
        """The BLAS thread count at every optimizer step, and the
        process's count put back after the test."""
        from repro.nn import Adam
        from repro.util import blas_threads

        count = blas_threads()
        if count is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
        seen = []
        step = Adam.step

        def recording(self):
            seen.append(blas_threads())
            return step(self)

        monkeypatch.setattr(Adam, "step", recording)
        yield seen
        from repro.util import set_blas_threads

        set_blas_threads(count)

    @staticmethod
    def at_each_count(train):
        from repro.util import blas_threads, set_blas_threads

        runs = []
        for start in (1, 2):
            set_blas_threads(start)
            runs.append(train())
            assert blas_threads() == start
        return runs

    def test_ours(self, tiny_designs, in_features, blas_seen):
        def train():
            model = TimingPredictor(in_features, seed=0)
            config = TrainConfig(**{**FAST.__dict__, "steps": 3})
            return [r["total"] for r in
                    OursTrainer(model, tiny_designs, config).fit()]

        first, second = self.at_each_count(train)
        assert first == second
        assert set(blas_seen) == {1}

    def test_baseline_loop(self, tiny_designs, in_features, blas_seen):
        from repro.model import DAC23Model
        from repro.train.strategies import _run_loop

        def train():
            return _run_loop(DAC23Model(in_features, seed=0), tiny_designs,
                             3, FAST, lambda d: 0,
                             np.random.default_rng(0))

        first, second = self.at_each_count(train)
        assert first == second
        assert set(blas_seen) == {1}

    def test_a_step_that_raises_restores_the_count(self, tiny_designs,
                                                   in_features, blas_seen,
                                                   monkeypatch):
        from repro.util import blas_threads, set_blas_threads

        set_blas_threads(2)
        trainer = OursTrainer(TimingPredictor(in_features, seed=0),
                              tiny_designs, FAST)

        def fail(*args):
            assert blas_threads() == 1
            raise RuntimeError("step failed")

        monkeypatch.setattr(trainer, "_grads_compiled", fail)
        with pytest.raises(RuntimeError, match="step failed"):
            trainer.step()
        assert blas_threads() == 2
        with pytest.raises(RuntimeError, match="step failed"):
            trainer.fit()
        assert blas_threads() == 2


class TestEvaluationHelpers:
    def test_evaluate_per_design(self, tiny_designs, in_features):
        model = train_adv_only(tiny_designs, in_features, FAST)
        results = evaluate_per_design(model.predict, tiny_designs[:1])
        assert set(results) == {"usbf_device"}
        assert {"r2", "mae", "rmse"} <= set(results["usbf_device"])

    def test_measure_inference_runtime(self, tiny_designs, in_features):
        model = train_adv_only(tiny_designs, in_features, FAST)
        t = measure_inference_runtime(model.predict, tiny_designs[0],
                                      repeats=2)
        assert t > 0


class TestTelemetryIntegration:
    """Trainers stream schema-valid telemetry through a RunLogger."""

    def test_ours_trainer_streams_records(self, tmp_path, tiny_designs,
                                          in_features):
        from repro.obs import RunLogger, load_run, validate_run_dir

        run_dir = tmp_path / "run"
        model = TimingPredictor(in_features, seed=0)
        with RunLogger(run_dir) as logger:
            logger.log_manifest(config=FAST, seeds={"train": FAST.seed})
            trainer = OursTrainer(model, tiny_designs, FAST,
                                  logger=logger)
            trainer.fit(steps=4)
            logger.log_summary(per_design={}, timings={})
        assert validate_run_dir(run_dir) == []
        records = load_run(run_dir)["records"]
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [0, 1, 2, 3]
        assert {"total", "elbo", "contrastive", "cmd", "lr",
                "grad_norm", "grad_norm_clipped", "warmup",
                "step_seconds"} <= set(steps[0])
        assert any(r["kind"] == "validation" for r in records)
        (final,) = [r for r in records if r["kind"] == "final_weights"]
        assert final["source"] == trainer.final_weights_source

    def test_pt_ft_streams_both_stages(self, tmp_path, tiny_designs,
                                       in_features):
        from repro.obs import RunLogger, load_run, validate_run_dir

        run_dir = tmp_path / "run"
        config = TrainConfig(**{**FAST.__dict__, "steps": 4})
        with RunLogger(run_dir) as logger:
            logger.log_manifest(config=config, seeds={"train": config.seed})
            train_pt_ft(tiny_designs, in_features, config, logger=logger)
            logger.log_summary(per_design={}, timings={})
        assert validate_run_dir(run_dir) == []
        records = load_run(run_dir)["records"]
        steps = [r for r in records if r["kind"] == "step"]
        stages = [r["stage"] for r in steps]
        assert stages == ["pretrain"] * 4 + ["finetune"] * 2
        # Finetune steps continue the global step counter.
        assert [r["step"] for r in steps] == [0, 1, 2, 3, 4, 5]
        finals = [r for r in records if r["kind"] == "final_weights"]
        assert [f["stage"] for f in finals] == ["pretrain", "finetune"]


class TestSelectionFlag:
    def test_baselines_accept_use_selection(self, tiny_designs,
                                            in_features):
        """The fairness-ablation path trains and predicts fine."""
        for trainer in (train_adv_only, train_simple_merge,
                        train_param_share, train_pt_ft):
            model = trainer(tiny_designs, in_features, FAST,
                            use_selection=True)
            pred = predict_head_for_node(model, tiny_designs[0])
            assert np.isfinite(pred).all()
