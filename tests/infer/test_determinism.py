"""Inference determinism regressions, and Equation (7) checked against
a test-only reference.

Historically ``predict(mc_samples>0)`` drew from the *training* noise
generator (``readout._noise_rng``): two identical calls returned
different values, and predicting advanced training RNG state.  These
tests pin the fix — inference uses an explicit seedable generator and
never mutates model state — plus the seed-pinned equivalence of the
vectorised MC sampler against the historical per-sample loop.

:class:`TestEquation7Reference` rebuilds Equation (7) by hand — each
design's prior row from the stored node population plus the design's
own paths, its mean readout ``u @ mu + b``, and the looped MC draws —
and holds ``predict``, ``predict_with_uncertainty`` and a fused
``predict_many`` to it.  The engine-vs-``predict`` tests in
``test_engine.py`` check extraction and caching; this is the readout's
independent check."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.infer import InferenceEngine
from repro.nn import Tensor, no_grad

ATOL = 1e-10


def looped_reference(model, u, mu, log_var, n, rng):
    """The historical per-sample MC loop, verbatim semantics."""
    std = np.exp(0.5 * log_var)
    bias = float(model.readout.bias.data[0])
    preds = []
    for _ in range(n):
        eps = rng.standard_normal(mu.shape)
        w = (mu + std * eps)[0]
        preds.append(u @ w + bias)
    return np.stack(preds)


def eq7_prior(model, node, u_n, u_d):
    """``(1, m)`` prior mu / log_var of ``node`` with a design's own
    paths folded into the stored population, built by hand."""
    pop = model._population
    un_mean = (pop["un_sum"][node] + u_n.sum(axis=0)) \
        / (pop["un_count"][node] + len(u_n))
    ud_mean = (pop["ud_sum"] + u_d.sum(axis=0)) \
        / (pop["ud_count"] + len(u_d))
    row = np.concatenate([un_mean, ud_mean]).reshape(1, -1)
    with no_grad():
        mu, log_var = model.readout.weight_distribution(Tensor(row))
    return mu.data, log_var.data


def eq7_reference(model, design, mc_samples=0, seed=0):
    """``(mean, std)`` of Equation (7) for ``design`` (std None when
    ``mc_samples == 0``)."""
    with no_grad():
        u, u_n, u_d = (t.data for t in model.path_features(design))
    mu, log_var = eq7_prior(model, design.node, u_n, u_d)
    if mc_samples == 0:
        return u @ mu[0] + float(model.readout.bias.data[0]), None
    preds = looped_reference(model, u, mu, log_var, mc_samples,
                             np.random.default_rng(seed))
    return preds.mean(axis=0), preds.std(axis=0)


class TestPredictDeterminism:
    def test_identical_calls_identical_results(self, model, designs):
        design = designs[0]
        a = model.predict(design, mc_samples=8)
        b = model.predict(design, mc_samples=8)
        np.testing.assert_array_equal(a, b)

    def test_uncertainty_calls_identical(self, model, designs):
        design = designs[1]
        a = model.predict_with_uncertainty(design, mc_samples=16)
        b = model.predict_with_uncertainty(design, mc_samples=16)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_training_rng_state_untouched(self, model, designs):
        before = copy.deepcopy(
            model.readout._noise_rng.bit_generator.state)
        model.predict(designs[0], mc_samples=8)
        model.predict_with_uncertainty(designs[0], mc_samples=16)
        after = model.readout._noise_rng.bit_generator.state
        assert after == before

    def test_seed_selects_the_draws(self, model, designs):
        design = designs[0]
        a = model.predict(design, mc_samples=8, seed=1)
        b = model.predict(design, mc_samples=8, seed=2)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(
            a, model.predict(design, mc_samples=8, seed=1))



class TestVectorizedSampling:
    def test_matches_looped_version_under_pinned_seed(self, model,
                                                      designs):
        design = designs[0]
        u, u_n, u_d = model.path_features(design)
        mu, log_var = eq7_prior(model, design.node, u_n.data, u_d.data)
        ref = looped_reference(model, u.data, mu, log_var, 12,
                               np.random.default_rng(42))
        out = model._sample_prior_predictions(
            u.data, mu, log_var, 12, np.random.default_rng(42))
        assert out.shape == ref.shape == (12, design.num_endpoints)
        np.testing.assert_allclose(out, ref, atol=ATOL)

    def test_mean_converges_to_deterministic_prediction(self, model,
                                                        designs):
        design = designs[0]
        det = model.predict(design)
        mc = model.predict(design, mc_samples=4096, seed=0)
        # MC average over W ~ N(mu, sigma) concentrates on u @ mu + b.
        assert np.max(np.abs(mc - det)) < 0.25


class TestEquation7Reference:
    """``predict``, ``predict_with_uncertainty`` and a three-design
    ``predict_many`` against :func:`eq7_reference`."""

    @pytest.fixture()
    def three(self, designs):
        """The two fixture designs plus a third: the first with its
        layout images flipped, under another name."""
        first = designs[0]
        flipped = dataclasses.replace(
            first, name=first.name + "_flipped",
            images=first.images[:, ::-1, ::-1].copy())
        return list(designs) + [flipped]

    def test_predict(self, model, three):
        for design in three:
            ref, _ = eq7_reference(model, design)
            np.testing.assert_allclose(model.predict(design), ref,
                                       rtol=0, atol=1e-12)

    def test_predict_with_uncertainty(self, model, three):
        for design in three:
            ref_mean, ref_std = eq7_reference(model, design,
                                              mc_samples=16, seed=3)
            mean, std = model.predict_with_uncertainty(
                design, mc_samples=16, seed=3)
            np.testing.assert_allclose(mean, ref_mean, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(std, ref_std, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mc_samples", [0, 16])
    def test_predict_many(self, model, three, mc_samples):
        out = InferenceEngine(model).predict_many(
            three, mc_samples=mc_samples,
            with_uncertainty=mc_samples > 0, seed=7)
        assert list(out) == [d.name for d in three]
        for design in three:
            ref_mean, ref_std = eq7_reference(model, design,
                                              mc_samples=mc_samples,
                                              seed=7)
            np.testing.assert_allclose(out[design.name].mean, ref_mean,
                                       rtol=0, atol=ATOL)
            if mc_samples:
                np.testing.assert_allclose(out[design.name].std, ref_std,
                                           rtol=0, atol=ATOL)
            else:
                assert out[design.name].std is None
