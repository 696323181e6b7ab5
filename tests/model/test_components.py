"""Tests for the GNN, CNN, disentangler, and Bayesian readout."""

import numpy as np
import pytest

from repro.features import GateVocabulary, encode_netlist
from repro.flow import run_flow
from repro.model import (
    BayesianReadout,
    DAC23Model,
    Disentangler,
    LayoutCNN,
    TimingGNN,
    TimingPredictor,
    build_prior_feature,
)
from repro.netlist import make_design, map_design
from repro.nn import Tensor
from repro.place import place_design
from repro.techlib import make_asap7_library, make_sky130_library


@pytest.fixture(scope="module")
def libraries():
    return {"130nm": make_sky130_library(), "7nm": make_asap7_library()}


@pytest.fixture(scope="module")
def vocab(libraries):
    return GateVocabulary(list(libraries.values()))


@pytest.fixture(scope="module")
def design_data(libraries, vocab):
    return run_flow("linkruncca", "7nm", libraries, vocab=vocab,
                    resolution=16)


@pytest.fixture(scope="module")
def graph(vocab):
    nl = map_design(make_design("linkruncca"), make_asap7_library())
    place_design(nl, seed=1)
    return encode_netlist(nl, vocab)


class TestTimingGNN:
    def test_output_shape(self, graph):
        gnn = TimingGNN(graph.features.shape[1], 16, 12,
                        np.random.default_rng(0))
        out = gnn(graph)
        assert out.shape == (len(graph.endpoint_rows), 12)

    def test_subset_readout(self, graph):
        gnn = TimingGNN(graph.features.shape[1], 16, 12,
                        np.random.default_rng(0))
        rows = graph.endpoint_rows[:3]
        out = gnn(graph, rows)
        assert out.shape == (3, 12)

    def test_deterministic(self, graph):
        a = TimingGNN(graph.features.shape[1], 16, 12,
                      np.random.default_rng(5))
        b = TimingGNN(graph.features.shape[1], 16, 12,
                      np.random.default_rng(5))
        np.testing.assert_allclose(a(graph).data, b(graph).data)

    def test_gradients_reach_input_transform(self, graph):
        gnn = TimingGNN(graph.features.shape[1], 16, 12,
                        np.random.default_rng(0))
        gnn(graph).sum().backward()
        assert gnn.lin_self.weight.grad is not None
        assert np.abs(gnn.lin_self.weight.grad).sum() > 0
        assert gnn.lin_net.weight.grad is not None

    def test_deep_paths_accumulate_information(self, graph):
        """Endpoint embeddings differ across endpoints (no collapse)."""
        gnn = TimingGNN(graph.features.shape[1], 16, 12,
                        np.random.default_rng(0))
        out = gnn(graph).data
        assert out.std(axis=0).mean() > 1e-4


class TestLayoutCNN:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        cnn = LayoutCNN(3, 4, 8, rng)
        out = cnn(Tensor(rng.standard_normal((5, 3, 16, 16))))
        assert out.shape == (5, 8)

    def test_masking(self, design_data):
        masked = design_data.path_image_stack()
        k = design_data.num_endpoints
        assert masked.shape == (k, 3, 16, 16)
        # Outside the mask everything is zero, inside it is the image.
        outside = (design_data.cone_masks[0] == 0)
        assert np.all(masked[0][:, outside] == 0)
        assert np.array_equal(masked[0][:, ~outside],
                              design_data.images[:, ~outside])
        assert design_data.path_image_stack() is masked   # memoised


class TestDisentangler:
    def test_split_shapes_and_tanh_bound(self):
        rng = np.random.default_rng(0)
        dis = Disentangler(16, rng=rng)
        u = Tensor(10 * rng.standard_normal((7, 16)))
        u_n, u_d = dis(u)
        assert u_n.shape == (7, 8)
        assert u_d.shape == (7, 8)
        assert np.all(np.abs(u_d.data) < 1.0)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            Disentangler(15, rng=np.random.default_rng(0))

    def test_recombine(self):
        rng = np.random.default_rng(0)
        dis = Disentangler(8, rng=rng)
        u_n = Tensor(np.ones((3, 4)))
        u_d = Tensor(np.zeros((3, 4)))
        z = dis.recombine(u_n, u_d)
        assert z.shape == (3, 8)
        np.testing.assert_allclose(z.data[:, :4], 1.0)


class TestBayesianReadout:
    def test_kl_zero_for_identical_gaussians(self):
        mu = Tensor(np.random.default_rng(0).standard_normal((4, 9)))
        lv = Tensor(np.zeros((4, 9)))
        kl = BayesianReadout.kl_divergence(mu, lv, mu, lv)
        assert kl.item() == pytest.approx(0.0, abs=1e-12)

    def test_kl_positive_for_different_gaussians(self):
        rng = np.random.default_rng(0)
        q_mu = Tensor(rng.standard_normal((4, 9)))
        p_mu = Tensor(rng.standard_normal((1, 9)))
        lv = Tensor(np.zeros((4, 9)))
        plv = Tensor(np.zeros((1, 9)))
        kl = BayesianReadout.kl_divergence(q_mu, lv, p_mu, plv)
        assert kl.item() > 0

    def test_kl_closed_form_1d(self):
        """KL(N(1, e^0) || N(0, e^0)) = 0.5."""
        q_mu = Tensor(np.array([[1.0]]))
        p_mu = Tensor(np.array([[0.0]]))
        lv = Tensor(np.zeros((1, 1)))
        kl = BayesianReadout.kl_divergence(q_mu, lv, p_mu, lv)
        assert kl.item() == pytest.approx(0.5)

    def test_elbo_loss_differentiable(self):
        rng = np.random.default_rng(0)
        readout = BayesianReadout(6, rng=rng)
        u = Tensor(rng.standard_normal((10, 6)))
        z = Tensor(rng.standard_normal((10, 6)))
        labels = rng.standard_normal(10)
        p_mu, p_lv = readout.weight_distribution(
            Tensor(rng.standard_normal((1, 6))))
        loss = readout.elbo_loss(u, z, labels, p_mu, p_lv, obs_var=0.5)
        loss.backward()
        assert readout.w_base.grad is not None

    def test_prior_feature_shape(self):
        u_n = Tensor(np.random.default_rng(0).standard_normal((11, 4)))
        u_d = Tensor(np.random.default_rng(1).standard_normal((23, 4)))
        u_tilde = build_prior_feature(u_n, u_d)
        assert u_tilde.shape == (1, 8)


class TestFullModels:
    def test_predict_requires_finalized_priors(self, design_data):
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        with pytest.raises(RuntimeError):
            model.predict(design_data)

    def test_predictor_end_to_end(self, design_data):
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        model.finalize_node_priors([design_data])
        pred = model.predict(design_data)
        assert pred.shape == (design_data.num_endpoints,)
        mean, std = model.predict_with_uncertainty(design_data,
                                                   mc_samples=8)
        assert std.shape == pred.shape
        assert (std >= 0).all()

    def test_predictor_subset(self, design_data):
        # transductive=False keeps the prior identical between the subset
        # and full calls, so the per-endpoint values must match exactly.
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        model.finalize_node_priors([design_data])
        subset = np.array([0, 2, 4])
        pred = model.predict(design_data, subset, transductive=False)
        assert pred.shape == (3,)
        full = model.predict(design_data, transductive=False)
        np.testing.assert_allclose(pred, full[subset], atol=1e-9)

    def test_transductive_prior_adapts(self, design_data):
        """Folding the design's own paths into N shifts the prior."""
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        model.finalize_node_priors([design_data])
        a = model.predict(design_data, transductive=True)
        b = model.predict(design_data, transductive=False)
        assert a.shape == b.shape

    def test_mc_prediction_close_to_mean(self, design_data):
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        model.finalize_node_priors([design_data])
        det = model.predict(design_data)
        mc = model.predict(design_data, mc_samples=800)
        np.testing.assert_allclose(mc, det, atol=0.2)

    @pytest.mark.parametrize("entry", ["predict", "uncertainty", "priors"])
    def test_inference_records_no_graph(self, design_data, monkeypatch,
                                        entry):
        """Inference returns arrays, so no op may record a graph node."""
        model = TimingPredictor(design_data.graph.features.shape[1], seed=0)
        model.finalize_node_priors([design_data])
        made = []
        make = Tensor._make

        def spy(data, parents, backward):
            out = make(data, parents, backward)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(spy))
        if entry == "predict":
            model.predict(design_data)
        elif entry == "uncertainty":
            model.predict_with_uncertainty(design_data, mc_samples=4)
        else:
            model.finalize_node_priors([design_data])
        assert made, "spy saw no ops"
        assert sum(made) == 0, f"{sum(made)} of {len(made)} ops recorded"

    def test_dac23_heads(self, design_data):
        model = DAC23Model(design_data.graph.features.shape[1],
                           n_heads=2, seed=0)
        p0 = model.predict(design_data, head=0)
        p1 = model.predict(design_data, head=1)
        assert p0.shape == p1.shape
        assert not np.allclose(p0, p1)

    def test_all_parameters_receive_gradients(self, design_data):
        from repro.nn import functional as F
        model = DAC23Model(design_data.graph.features.shape[1], seed=0)
        pred = model(design_data)
        loss = F.mse_loss(pred, Tensor(design_data.labels.reshape(-1, 1)))
        loss.backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []
