"""Fused cross-design batch vs. the per-design model.

The fused step runs one union-graph GNN sweep and one stacked CNN
forward for every design.  Its oracle is the per-design
``TimingPredictor.path_features``: the union's feature rows and the
parameter gradients they produce must equal what the model computes
design by design (up to float summation order).
"""

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import (
    FusedDesignBatch,
    OursTrainer,
    TrainConfig,
    merge_pin_graphs,
    slice_ranges,
)


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


@pytest.fixture(scope="module")
def subsets(designs):
    rng = np.random.default_rng(0)
    return [np.sort(rng.choice(d.num_endpoints,
                               size=min(12, d.num_endpoints),
                               replace=False))
            for d in designs]


def _sum_loss_grads(model, parts):
    """Parameter gradients of ``sum(u) + sum(u_n) + sum(u_d)``."""
    model.zero_grad()
    loss = None
    for tensor in parts:
        loss = tensor.sum() if loss is None else loss + tensor.sum()
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()
            if p.grad is not None}


class TestMergedGraph:
    def test_union_shapes_and_levels(self, designs):
        graphs = [d.graph for d in designs]
        merged = merge_pin_graphs(graphs)
        assert merged.num_nodes == sum(g.num_nodes for g in graphs)
        assert len(merged.levels) == max(len(g.levels) for g in graphs)
        # Every node appears in exactly one level.
        all_levels = np.concatenate(merged.levels)
        assert len(np.unique(all_levels)) == merged.num_nodes
        assert merged.endpoint_rows.shape[0] == \
            sum(g.endpoint_rows.shape[0] for g in graphs)

    def test_slice_ranges(self):
        assert slice_ranges([3, 0, 2]) == [(0, 3), (3, 3), (3, 5)]

    def test_batch_rows_match_per_design_rows(self, designs):
        batch = FusedDesignBatch(designs)
        subsets = [np.array([0, 2]), np.array([1])]
        rows = batch.merged_endpoint_rows(subsets)
        offset = designs[0].graph.num_nodes
        expected = np.concatenate([
            designs[0].graph.endpoint_rows[[0, 2]],
            designs[1].graph.endpoint_rows[[1]] + offset,
        ])
        assert np.array_equal(rows, expected)


class TestStepEquivalence:
    def test_union_features_match_per_design(self, designs, in_features,
                                             subsets):
        model = TimingPredictor(in_features, seed=0)
        fused = FusedDesignBatch(designs).path_features(model, subsets)
        ranges = slice_ranges([len(s) for s in subsets])
        for design, subset, (lo, hi) in zip(designs, subsets, ranges):
            per_design = model.path_features(design, subset)
            for union_part, design_part in zip(fused, per_design):
                np.testing.assert_allclose(union_part.data[lo:hi],
                                           design_part.data,
                                           rtol=0.0, atol=1e-12)

    def test_union_gradients_match_per_design(self, designs, in_features,
                                              subsets):
        model = TimingPredictor(in_features, seed=0)
        union = _sum_loss_grads(
            model, FusedDesignBatch(designs).path_features(model, subsets))
        looped = _sum_loss_grads(
            model, [part for design, subset in zip(designs, subsets)
                    for part in model.path_features(design, subset)])
        assert union.keys() == looped.keys()
        assert any(name.startswith("extractor.cnn.") for name in union)
        assert any(name.startswith("extractor.gnn.") for name in union)
        for name in union:
            np.testing.assert_allclose(union[name], looped[name],
                                       rtol=0.0, atol=1e-9, err_msg=name)

    def test_history_records_step_seconds(self, designs, in_features):
        model = TimingPredictor(in_features, seed=0)
        trainer = OursTrainer(model, designs,
                              TrainConfig(steps=1, seed=0,
                                          holdout_fraction=0.0))
        assert trainer.step(warmup=True)["step_seconds"] > 0.0
