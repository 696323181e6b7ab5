"""InferenceEngine vs the seed ``TimingPredictor.predict`` path.

Engine predictions must match the per-design training path: a
one-design ``predict_many`` bit for bit (cold, warm, MC, uncertainty,
uncached, and after a serialization round-trip), a fused multi-design
batch to atol 1e-10 (the union graph's BLAS calls may sum in another
order)."""

import dataclasses

import numpy as np
import pytest

from repro.infer import (
    InferenceEngine,
    Prediction,
    load_predictor,
    save_predictor,
    weight_digest,
)

ATOL = 1e-10


def predict_one(engine, design, **kwargs):
    """The engine's answer for one design (a one-design batch)."""
    return engine.predict_many([design], **kwargs)[design.name]


class TestPredictEquivalence:
    def test_cold_and_warm_match_seed_path(self, model, designs,
                                           reference):
        engine = InferenceEngine(model)
        for design in designs:
            cold = predict_one(engine, design).mean
            warm = predict_one(engine, design).mean
            np.testing.assert_array_equal(cold, reference[design.name])
            np.testing.assert_array_equal(cold, warm)

    def test_mc_sampling_matches_seed_path(self, model, designs):
        engine = InferenceEngine(model)
        design = designs[0]
        ref = model.predict(design, mc_samples=8, seed=7)
        out = predict_one(engine, design, mc_samples=8, seed=7).mean
        np.testing.assert_array_equal(out, ref)

    def test_uncertainty_matches_seed_path(self, model, designs):
        engine = InferenceEngine(model)
        for design in designs:
            ref_mean, ref_std = model.predict_with_uncertainty(
                design, mc_samples=16, seed=3)
            out = predict_one(engine, design, mc_samples=16,
                              with_uncertainty=True, seed=3)
            np.testing.assert_array_equal(out.mean, ref_mean)
            np.testing.assert_array_equal(out.std, ref_std)


class TestColdExtraction:
    def test_per_design_cnn_pass_equals_stacked(self, model, designs):
        """A cold multi-design extraction runs the CNN once per design;
        its layout features equal one ``cnn_forward`` over every
        design's stacked images, bit for bit."""
        from repro.infer.engine import cnn_forward

        engine = InferenceEngine(model)
        engine.predict_many(designs)   # cold: one extraction for both
        cnn = model.extractor.cnn
        stacked = cnn_forward(cnn, np.concatenate(
            [d.path_image_stack() for d in designs]))
        digest = weight_digest(model)
        layout = np.concatenate([engine.cache.lookup(d, digest)[0]
                                 for d in designs])[:, -stacked.shape[1]:]
        np.testing.assert_array_equal(layout, stacked)


class TestPredictMany:
    def test_fused_matches_per_design(self, model, designs, reference):
        engine = InferenceEngine(model)
        out = engine.predict_many(designs)
        assert set(out) == {d.name for d in designs}
        for design in designs:
            pred = out[design.name]
            assert isinstance(pred, Prediction)
            assert pred.node == design.node
            assert pred.num_endpoints == design.num_endpoints
            np.testing.assert_allclose(pred.mean,
                                       reference[design.name],
                                       atol=ATOL)
            assert pred.std is None

    def test_mc_matches_per_design_seeded_predict(self, model, designs):
        engine = InferenceEngine(model)
        out = engine.predict_many(designs, mc_samples=8, seed=5)
        for design in designs:
            ref = model.predict(design, mc_samples=8, seed=5)
            np.testing.assert_allclose(out[design.name].mean, ref,
                                       atol=ATOL)

    def test_with_uncertainty(self, model, designs):
        engine = InferenceEngine(model)
        out = engine.predict_many(designs, mc_samples=16,
                                  with_uncertainty=True, seed=2)
        for design in designs:
            ref_mean, ref_std = model.predict_with_uncertainty(
                design, mc_samples=16, seed=2)
            np.testing.assert_allclose(out[design.name].mean, ref_mean,
                                       atol=ATOL)
            np.testing.assert_allclose(out[design.name].std, ref_std,
                                       atol=ATOL)

    def test_uncertainty_without_samples_raises(self, model, designs):
        engine = InferenceEngine(model)
        with pytest.raises(ValueError):
            engine.predict_many(designs, with_uncertainty=True)

    def test_repeated_name_is_refused_before_extraction(self, model,
                                                        designs):
        """Results are keyed by name: two designs sharing one (the same
        benchmark on two nodes) are refused, not one dropped."""
        engine = InferenceEngine(model)
        twin = dataclasses.replace(designs[1], name=designs[0].name)
        with pytest.raises(ValueError, match=repr(designs[0].name)):
            engine.predict_many([designs[0], twin])
        assert engine.cache_stats()["misses"] == 0

    def test_no_designs_no_predictions(self, model, monkeypatch):
        """An empty batch answers an empty mapping, as the predictor's
        Equation (7) answers an empty list, before any weight digest
        or extraction."""
        engine = InferenceEngine(model)
        monkeypatch.setattr(engine, "_digest", None)   # any call raises
        assert engine.predict_many([]) == {}
        assert engine.predict_many([], mc_samples=4,
                                   with_uncertainty=True) == {}
        assert model.predict_from_features([], []) == []
        assert engine.cache_stats()["misses"] == 0

    def test_partial_cache_mixes_hit_and_fused_miss(self, model,
                                                    designs, reference):
        engine = InferenceEngine(model)
        predict_one(engine, designs[0])  # warm one design only
        before = engine.cache_stats()
        out = engine.predict_many(designs)
        after = engine.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["entries"] == len(designs)
        for design in designs:
            np.testing.assert_allclose(out[design.name].mean,
                                       reference[design.name],
                                       atol=ATOL)


class TestSerialKernels:
    def test_serving_never_reaches_the_kernel_pool(self, model,
                                                   fresh_model, designs,
                                                   monkeypatch):
        """Only a training step splits kernels: a cold and a warm
        ``predict_many`` and a reload's staged warm run every kernel on
        their caller, whatever the host's core count."""
        from repro.util import threads, training_step

        def no_pool():
            raise AssertionError("a serving kernel reached the pool")

        monkeypatch.setattr(threads, "kernel_workers", lambda: 2)
        monkeypatch.setattr(threads, "_executor", no_pool)
        engine = InferenceEngine(model)
        for _ in range(2):
            engine.predict_many(designs, mc_samples=4,
                                with_uncertainty=True)
        engine.swap_model(fresh_model, warm=designs)
        misses = engine.cache_stats()["misses"]
        engine.predict_many(designs)
        assert engine.cache_stats()["misses"] == misses   # warmed
        # The same call inside a step would split (and fail here).
        with pytest.raises(AssertionError, match="reached the pool"):
            with training_step():
                InferenceEngine(model).predict_many(designs)


class TestCacheBehaviour:
    def test_warm_call_skips_extraction(self, model, designs,
                                        monkeypatch):
        engine = InferenceEngine(model)
        design = designs[0]
        predict_one(engine, design)

        # NOTE: patching an attribute of the model would change the
        # weight digest (the walk covers the module tree) and thus
        # legitimately invalidate the cache — patch the engine-level
        # kernel entry point instead.
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("extractor ran on a warm call")

        import repro.infer.engine as engine_mod

        monkeypatch.setattr(engine_mod, "cnn_forward", boom)
        predict_one(engine, design)  # served from cache
        assert engine.cache_stats()["hits"] >= 1

    def test_weight_change_invalidates(self, fresh_model, designs):
        engine = InferenceEngine(fresh_model)
        design = designs[0]
        before = predict_one(engine, design).mean
        tensor = next(p for p in fresh_model.parameters())
        # repro-check: disable=tensor-data-mutation -- test simulates an external weight edit
        tensor.data += 0.05
        fresh_model.finalize_node_priors(designs)
        after = predict_one(engine, design).mean
        assert engine.cache_stats()["misses"] == 2
        assert not np.allclose(before, after)
        ref = fresh_model.predict(design)
        np.testing.assert_allclose(after, ref, atol=ATOL)


class TestContentKeyedStructures:
    """The weight-independent cache keys on design *content*: a design
    rebuilt under the same (name, node) with different layout images
    must get its own union batch and im2col columns, not the old
    design's."""

    @staticmethod
    def rebuilt(design):
        return dataclasses.replace(
            design, images=design.images[:, ::-1, ::-1].copy())

    def test_predict_many_serves_the_rebuilt_design(self, model, designs):
        engine = InferenceEngine(model)
        original = designs[0]
        rebuilt = self.rebuilt(original)
        expected = model.predict(rebuilt)
        assert not np.allclose(expected, model.predict(original),
                               atol=1e-6)
        engine.predict_many([original])
        for _ in range(2):   # cold, then from the feature cache
            out = engine.predict_many([rebuilt])[rebuilt.name].mean
            np.testing.assert_allclose(out, expected, atol=ATOL)
        assert engine.stats()["structs"]["entries"] == 2


class TestSerialization:
    def test_round_trip_predictions_identical(self, model, designs,
                                              reference, tmp_path):
        path = tmp_path / "model.npz"
        save_predictor(model, path)
        loaded = load_predictor(path)
        assert weight_digest(loaded) == weight_digest(model)
        engine = InferenceEngine(loaded)
        for design in designs:
            np.testing.assert_array_equal(predict_one(engine, design).mean,
                                          reference[design.name])

    def test_round_trip_preserves_priors_and_population(self, model,
                                                        designs,
                                                        tmp_path):
        """The archive holds the population; each node's prior, read
        from it by the loaded weights, is the saved model's."""
        path = tmp_path / "model.npz"
        save_predictor(model, path)
        loaded = load_predictor(path)
        pop, saved = loaded._population, model._population
        np.testing.assert_array_equal(pop["ud_sum"], saved["ud_sum"])
        assert pop["ud_count"] == saved["ud_count"]
        assert pop["un_count"] == saved["un_count"]
        assert set(pop["un_sum"]) == set(saved["un_sum"]) == \
            {d.node for d in designs}
        for node, un_sum in saved["un_sum"].items():
            np.testing.assert_array_equal(pop["un_sum"][node], un_sum)
        for design in designs:
            np.testing.assert_array_equal(loaded.predict(design),
                                          model.predict(design))

    def test_version_1_archive_serves_like_version_2(self, model,
                                                     designs, tmp_path):
        """A version-1 archive, with the ``prior::`` entries older builds
        wrote, loads (they are ignored) and serves the arrays the
        version-2 archive of the same model serves."""
        import json

        from repro.nn import Tensor, no_grad

        v2 = tmp_path / "v2.npz"
        save_predictor(model, v2)
        with np.load(v2, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        assert not any(k.startswith("prior::") for k in arrays)
        meta = json.loads(str(arrays["meta"]))
        assert meta["format_version"] == 2
        arrays["meta"] = np.array(json.dumps({**meta, "format_version": 1}))
        half = model.feature_size // 2
        with no_grad():
            for node in model._population["un_sum"]:
                row = model._prior_feature(node, np.zeros((0, half)),
                                           np.zeros((0, half)))
                mu, log_var = model.readout.weight_distribution(Tensor(row))
                arrays[f"prior::mu::{node}"] = mu.data
                arrays[f"prior::log_var::{node}"] = log_var.data
        v1 = tmp_path / "v1.npz"
        np.savez_compressed(v1, **arrays)

        kwargs = dict(mc_samples=16, with_uncertainty=True, seed=3)
        old = InferenceEngine(load_predictor(v1)).predict_many(designs,
                                                               **kwargs)
        new = InferenceEngine(load_predictor(v2)).predict_many(designs,
                                                               **kwargs)
        for design in designs:
            np.testing.assert_array_equal(old[design.name].mean,
                                          new[design.name].mean)
            np.testing.assert_array_equal(old[design.name].std,
                                          new[design.name].std)

    def test_untrained_model_refuses_to_save(self, designs, tmp_path):
        from repro.model import TimingPredictor

        raw = TimingPredictor(designs[0].graph.features.shape[1],
                              seed=0)
        with pytest.raises(RuntimeError, match="finalise|finalize"):
            save_predictor(raw, tmp_path / "raw.npz")

    def test_version_check(self, model, tmp_path):
        import json

        import numpy as np_

        from repro.nn import CheckpointError

        path = tmp_path / "model.npz"
        save_predictor(model, path)
        with np_.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta"]))
        meta["format_version"] = 99
        arrays["meta"] = np_.array(json.dumps(meta))
        np_.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="version"):
            load_predictor(path)

    def test_format_version_3_is_refused(self, model, tmp_path):
        import json

        from repro.nn import CheckpointError

        path = tmp_path / "model.npz"
        save_predictor(model, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta"]))
        arrays["meta"] = np.array(json.dumps({**meta, "format_version": 3}))
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError) as excinfo:
            load_predictor(path)
        assert "'meta.format_version' is 3" in str(excinfo.value)

    def test_save_is_suffix_exact(self, model, tmp_path):
        """No silent ``.npz`` append: the file lands at the requested
        path verbatim, whatever its suffix."""
        path = tmp_path / "model.ckpt"
        written = save_predictor(model, path)
        assert written == path
        assert path.is_file()
        assert not (tmp_path / "model.ckpt.npz").exists()
        loaded = load_predictor(path)
        assert weight_digest(loaded) == weight_digest(model)

    def test_legacy_suffixed_checkpoint_still_loads(self, model,
                                                    tmp_path):
        """Checkpoints written before the atomic writer landed at
        ``<path>.npz``; loading by the original name must still work."""
        save_predictor(model, tmp_path / "model.npz")
        loaded = load_predictor(tmp_path / "model")  # old call style
        assert weight_digest(loaded) == weight_digest(model)

    def test_crash_mid_save_leaves_previous_file(self, model, tmp_path,
                                                 monkeypatch):
        import os

        path = tmp_path / "model.npz"
        save_predictor(model, path)
        before = path.read_bytes()

        def dying_replace(src, dst):
            raise OSError("simulated kill during rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated kill"):
            save_predictor(model, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p for p in tmp_path.iterdir() if p != path] == []

    def test_missing_key_is_named(self, model, tmp_path):
        """Dropping any one entry is refused, naming it — a weight as
        much as a population count (a missing weight must not be
        served at its freshly initialised value) — and so is a
        ``meta.init_config`` that does not build a predictor."""
        import json

        import numpy as np_

        from repro.nn import CheckpointError

        path = tmp_path / "model.npz"
        save_predictor(model, path)
        with np_.load(path, allow_pickle=False) as archive:
            saved = {k: archive[k] for k in archive.files}

        def without(victim):
            arrays = dict(saved)
            del arrays[victim]
            return arrays

        def with_init_config(init_config):
            meta = json.loads(str(saved["meta"]))
            meta["init_config"] = init_config
            return {**saved, "meta": np_.array(json.dumps(meta))}

        victim = next(k for k in saved if k.startswith("pop::un_count::"))
        cases = [
            (without(victim), victim),
            (without("param::readout.w_base"), "param::readout.w_base"),
            (with_init_config({**model.init_config, "dropout": 0.1}),
             "meta.init_config"),
            (with_init_config([model.init_config["in_features"]]),
             "meta.init_config"),
            (with_init_config({"seed": 0}), "meta.init_config.in_features"),
        ]
        for arrays, named in cases:
            np_.savez_compressed(path, **arrays)
            with pytest.raises(CheckpointError) as excinfo:
                load_predictor(path)
            assert named in str(excinfo.value)

    def test_corrupt_archive_raises_typed_error(self, tmp_path):
        from repro.nn import CheckpointError

        path = tmp_path / "model.npz"
        path.write_bytes(b"garbage, not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_predictor(path)
