"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro.experiments import build_dataset
from repro.model import TimingPredictor
from repro.train import OursTrainer, TrainConfig, r2_score, train_pt_ft


@pytest.fixture(scope="module")
def dataset():
    return build_dataset()


class TestDatasetIntegrity:
    def test_every_design_has_consistent_arrays(self, dataset):
        for design in dataset.train + dataset.test:
            k = design.num_endpoints
            assert design.cone_masks.shape[0] == k
            assert len(design.graph.endpoint_names) == k
            assert design.graph.endpoint_rows.shape == (k,)
            assert np.isfinite(design.labels).all()
            assert (design.labels > 0).all()

    def test_endpoint_rows_point_at_endpoint_features(self, dataset):
        for design in dataset.train:
            rows = design.graph.endpoint_rows
            assert rows.max() < design.graph.num_nodes

    def test_node_label_scales_disjoint(self, dataset):
        """The Figure-6 premise holds across the whole dataset."""
        src = np.concatenate([d.labels for d in dataset.train_source])
        tgt = np.concatenate([d.labels for d in dataset.train_target])
        assert np.median(src) > 5 * np.median(tgt)


class TestLearningSignal:
    """Short-but-real training must already beat trivial predictors."""

    def test_ours_beats_mean_predictor_on_train(self, dataset):
        model = TimingPredictor(dataset.in_features, seed=0)
        OursTrainer(model, dataset.train,
                    TrainConfig(steps=40, seed=0)).fit()
        design = dataset.train_target[0]
        r2 = r2_score(design.labels, model.predict(design))
        assert r2 > 0.0  # mean predictor scores exactly 0

    def test_pt_ft_beats_mean_predictor_on_test(self, dataset):
        model = train_pt_ft(dataset.train, dataset.in_features,
                            TrainConfig(steps=40, seed=0))
        scores = [r2_score(d.labels, model.predict(d))
                  for d in dataset.test]
        assert np.mean(scores) > 0.0

    def test_deterministic_training(self, dataset):
        def train_once():
            model = TimingPredictor(dataset.in_features, seed=3)
            OursTrainer(model, dataset.train,
                        TrainConfig(steps=5, seed=3)).fit()
            return model.predict(dataset.test[0])

        np.testing.assert_allclose(train_once(), train_once())


class TestReverseTransfer:
    """Extension: transfer in the opposite direction (7nm -> 130nm).

    The framework is symmetric in the two nodes; swapping roles (the
    trainer's target node is 130nm) must train and produce finite
    predictions on 130nm targets.
    """

    def test_seven_to_130(self):
        dataset = build_dataset(target_label="130nm", resolution=16)
        train = [dataset.by_name(name)
                 for name in ("smallboom", "jpeg", "linkruncca")]
        test = dataset.by_name("arm9")
        assert [d.node for d in train + [test]] == \
            ["130nm", "7nm", "7nm", "130nm"]
        model = TimingPredictor(dataset.in_features, seed=0)
        OursTrainer(model, train, TrainConfig(steps=40, seed=0,
                                              target_node="130nm")).fit()
        pred = model.predict(test)
        assert np.isfinite(pred).all()
        # Predictions land nearer the 130nm training scale than the
        # (an order of magnitude larger) raw-7nm-vs-130nm gap would put
        # a scale-confused model.
        target_mean = train[0].labels.mean()
        assert abs(pred.mean() - target_mean) < target_mean
