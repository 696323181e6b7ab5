"""Crash-safe checkpointing: round-trips, resume determinism, kill-mid-save."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.infer import weight_digest
from repro.model import TimingPredictor
from repro.nn import CheckpointError
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import (
    CHECKPOINT_NAME,
    OursTrainer,
    TrainConfig,
    load_checkpoint,
)
from repro.train.checkpoint import (RETIRED_CONFIG_KEYS, capture_rng,
                                    restore_rng)

FAST = TrainConfig(steps=8, lr=3e-3, batch_endpoints=24, seed=0,
                   gamma1=1.0, gamma2=30.0, eval_every=3)


@pytest.fixture(scope="module")
def tiny_designs():
    libraries = {"130nm": make_sky130_library(), "7nm": make_asap7_library()}
    vocab = GateVocabulary(list(libraries.values()))
    designs = [
        run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                 resolution=16),
        run_flow("spiMaster", "130nm", libraries, vocab=vocab,
                 resolution=16),
    ]
    normalize_features([d.graph for d in designs])
    return designs


@pytest.fixture(scope="module")
def in_features(tiny_designs):
    return tiny_designs[0].graph.features.shape[1]


def make_trainer(designs, in_features, config=FAST, **kwargs):
    model = TimingPredictor(in_features, seed=config.seed)
    return OursTrainer(model, designs, config, **kwargs)


def history_key(history):
    """Step records minus wall-clock noise, for bit-for-bit comparison."""
    return [{k: v for k, v in record.items() if k != "step_seconds"}
            for record in history]


def interfere_after(trainer, k, action):
    """Run ``action(trainer)`` once ``k`` steps have completed."""
    original = trainer.step
    calls = {"n": 0}

    def wrapped(warmup=False):
        record = original(warmup=warmup)
        calls["n"] += 1
        if calls["n"] == k:
            action(trainer)
        return record

    trainer.step = wrapped


class TestRngRoundTrip:
    def test_restored_generator_continues_same_stream(self):
        rng = np.random.default_rng(123)
        rng.standard_normal(17)  # advance past the seed state
        state = capture_rng(rng)
        expected = rng.standard_normal(32)
        fresh = np.random.default_rng(0)
        restore_rng(fresh, state)
        np.testing.assert_array_equal(fresh.standard_normal(32), expected)

    def test_state_survives_json(self):
        rng = np.random.default_rng(9)
        rng.integers(0, 1000, size=5)
        state = json.loads(json.dumps(capture_rng(rng)))
        expected = rng.integers(0, 1 << 40, size=8)
        fresh = np.random.default_rng(1)
        restore_rng(fresh, state)
        np.testing.assert_array_equal(
            fresh.integers(0, 1 << 40, size=8), expected)


def _rewrite_archive(path, mutate):
    """Load an npz, apply ``mutate(staged_dict)``, write it back."""
    with np.load(path, allow_pickle=False) as archive:
        staged = {k: archive[k] for k in archive.files}
    mutate(staged)
    np.savez(path, **staged)


class TestCheckpointArchive:
    def test_round_trip(self, tiny_designs, in_features, tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 0
        assert ckpt.config["steps"] == FAST.steps
        assert ckpt.config["seed"] == FAST.seed
        tensors = dict(trainer.model.named_tensors())
        assert set(ckpt.params) == set(tensors)
        for name, value in ckpt.params.items():
            np.testing.assert_array_equal(value, tensors[name].data)
        assert ckpt.optimizer["kind"] == "Adam"
        assert ckpt.holdout is not None  # default config has a holdout

    def test_missing_key_is_named(self, tiny_designs, in_features,
                                  tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        saved = path.read_bytes()

        def drop_opt_buffer(staged):
            meta = json.loads(str(staged["meta"]))
            i = meta["optimizer"]["lists"]["m"]["present"][0]
            del staged[f"opt::m::{i}"]

        def edit_optimizer_meta(edit):
            def mutate(staged):
                meta = json.loads(str(staged["meta"]))
                meta["optimizer"] = edit(meta["optimizer"])
                staged["meta"] = np.array(json.dumps(meta))
            return mutate

        def without_lists(optimizer):
            del optimizer["lists"]
            return optimizer

        cases = [
            (drop_opt_buffer, "missing key 'opt::m::"),
            (edit_optimizer_meta(without_lists),
             "missing key 'meta.optimizer.lists'"),
            (edit_optimizer_meta(lambda optimizer: ["Adam"]),
             "key 'meta.optimizer' is not a JSON object"),
        ]
        for mutate, message in cases:
            path.write_bytes(saved)
            _rewrite_archive(path, mutate)
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)

    def test_corrupt_archive_raises_typed_error(self, tmp_path):
        path = tmp_path / CHECKPOINT_NAME
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tiny_designs, in_features,
                                       tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)

        def bump_version(staged):
            meta = json.loads(str(staged["meta"]))
            meta["format_version"] = 999
            staged["meta"] = np.array(json.dumps(meta))

        _rewrite_archive(path, bump_version)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


def _set_config_key(path, key, value):
    def mutate(staged):
        meta = json.loads(str(staged["meta"]))
        meta["config"][key] = value
        staged["meta"] = np.array(json.dumps(meta))

    _rewrite_archive(path, mutate)


class TestRetiredConfigKeys:
    """Checkpoints written before a ``TrainConfig`` key was retired
    (``fused``, ``swa_fraction``, ``cmd_mode``) carry that key."""

    @pytest.mark.parametrize("key", sorted(RETIRED_CONFIG_KEYS))
    def test_kept_value_is_dropped_and_resumes_bit_exact(
            self, key, tiny_designs, in_features, tmp_path):
        baseline = make_trainer(tiny_designs, in_features)
        baseline.fit()

        path = tmp_path / CHECKPOINT_NAME
        victim = make_trainer(tiny_designs, in_features,
                              checkpoint_path=path)
        interfere_after(victim, 4, lambda tr: tr.request_stop())
        victim.fit()
        _set_config_key(path, key, RETIRED_CONFIG_KEYS[key])

        ckpt = load_checkpoint(path)
        assert key not in ckpt.config
        # `repro train --resume` rebuilds the config from the checkpoint.
        config = TrainConfig(**ckpt.config)
        resumed = make_trainer(tiny_designs, in_features, config=config,
                               checkpoint_path=path)
        resumed.load_checkpoint(path)
        resumed.fit()
        assert weight_digest(resumed.model) == \
            weight_digest(baseline.model)
        assert history_key(resumed.history) == \
            history_key(baseline.history)

    @pytest.mark.parametrize("key, value", [("fused", False),
                                            ("swa_fraction", 0.5),
                                            ("cmd_mode", "pairwise")])
    def test_other_value_is_refused(self, key, value, tiny_designs,
                                    in_features, tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        _set_config_key(path, key, value)
        with pytest.raises(CheckpointError, match=f"{key}="):
            load_checkpoint(path)
        with pytest.raises(CheckpointError, match=f"{key}="):
            make_trainer(tiny_designs, in_features).load_checkpoint(path)


class TestWorkersExtra:
    """Checkpoints written by data-parallel ``repro train --workers N``
    runs carry ``extra["workers"]``.  ``extra`` is informational, so
    such a checkpoint still resumes in the single-process trainer."""

    def test_single_process_checkpoint_has_empty_extra(self, tiny_designs,
                                                       in_features,
                                                       tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / "ckpt.npz"
        trainer.step(warmup=True)
        trainer.save_checkpoint(step=1, path=path)
        extra = load_checkpoint(path).extra
        assert "workers" not in extra
        assert extra["nodes"] == ["130nm", "7nm"]
        assert extra["target_node"] == "7nm"

    def test_workers_extra_resumes_bit_exact(self, tiny_designs,
                                             in_features, tmp_path):
        baseline = make_trainer(tiny_designs, in_features)
        baseline.fit()

        path = tmp_path / CHECKPOINT_NAME
        victim = make_trainer(tiny_designs, in_features,
                              checkpoint_path=path)
        interfere_after(victim, 4, lambda tr: tr.request_stop())
        victim.fit()

        def add_workers(staged):
            meta = json.loads(str(staged["meta"]))
            meta["extra"]["workers"] = 2
            staged["meta"] = np.array(json.dumps(meta))

        _rewrite_archive(path, add_workers)
        assert load_checkpoint(path).extra["workers"] == 2

        resumed = make_trainer(tiny_designs, in_features,
                               checkpoint_path=path)
        resumed.load_checkpoint(path)
        resumed.fit()
        assert len(resumed.history) == len(baseline.history)
        for key in ("total", "elbo", "contrastive", "cmd", "grad_norm"):
            assert np.array_equal([r[key] for r in resumed.history],
                                  [r[key] for r in baseline.history]), key
        want = dict(baseline.model.named_tensors())
        got = dict(resumed.model.named_tensors())
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name].data, want[name].data), name


class TestTrainerValidation:
    def test_config_mismatch_rejected(self, tiny_designs, in_features,
                                      tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        other = make_trainer(tiny_designs, in_features,
                             config=replace(FAST, lr=1e-4))
        with pytest.raises(CheckpointError, match="lr"):
            other.load_checkpoint(path)

    def test_checkpoint_every_may_differ(self, tiny_designs, in_features,
                                         tmp_path):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        other = make_trainer(tiny_designs, in_features,
                             config=replace(FAST, checkpoint_every=3))
        other.load_checkpoint(path)  # must not raise
        assert other._start_step == 0

    def test_failed_load_leaves_trainer_untouched(self, tiny_designs,
                                                  in_features, tmp_path):
        """Check, then apply: whichever check fails, the error names the
        key and the trainer keeps its weights, Adam moments and step
        count, both RNG states and its keeper snapshot."""
        trainer = make_trainer(tiny_designs, in_features)
        trainer.keeper.offer(0.5)   # save a keeper snapshot too
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=0, path=path)
        with np.load(path, allow_pickle=False) as archive:
            saved = {k: archive[k] for k in archive.files}

        def with_meta(edit):
            def mutate(arrays):
                meta = json.loads(str(arrays["meta"]))
                edit(meta)
                arrays["meta"] = np.array(json.dumps(meta))
            return mutate

        def misshape(arrays):
            arrays["opt::m::0"] = np.zeros(3)

        def drop_keeper_entry(arrays):
            del arrays["keeper::readout.w_base"]

        cases = {
            "lr": with_meta(lambda m: m["config"].update(lr=1e-4)),
            "opt::m::0": misshape,
            "keeper::readout.w_base": drop_keeper_entry,
            "rng_states.noise": with_meta(lambda m: m["rng_states"].update(
                noise={"bit_generator": "PCG64", "state": "garbage"})),
        }

        other = make_trainer(tiny_designs, in_features)
        other.step(warmup=True)   # moments, step count and RNGs to keep
        other.keeper.offer(0.25)

        def state(tr):
            adam = tr.optimizer.state_dict()
            keeper = tr.keeper.state_dict()
            return (weight_digest(tr.model), adam["t"],
                    [buf.tobytes() for buf in adam["m"] + adam["v"]],
                    capture_rng(tr.rng),
                    capture_rng(tr.model.readout._noise_rng),
                    keeper["best_score"],
                    {name: value.tobytes()
                     for name, value in keeper["best_state"].items()})

        before = state(other)
        for key, mutate in cases.items():
            arrays = dict(saved)
            mutate(arrays)
            np.savez(path, **arrays)
            with pytest.raises(CheckpointError) as excinfo:
                other.load_checkpoint(path)
            assert key in str(excinfo.value)
            assert state(other) == before, key


class TestResumeDeterminism:
    def test_interrupt_resume_matches_uninterrupted(self, tiny_designs,
                                                    in_features, tmp_path):
        """Stop at step 4, resume in a fresh trainer: the final weights
        and the full loss stream must match the uninterrupted run
        bit-for-bit."""
        baseline = make_trainer(tiny_designs, in_features)
        baseline.fit()
        want_digest = weight_digest(baseline.model)
        want_history = history_key(baseline.history)

        path = tmp_path / CHECKPOINT_NAME
        victim = make_trainer(tiny_designs, in_features,
                              checkpoint_path=path)
        interfere_after(victim, 4, lambda tr: tr.request_stop())
        victim.fit()
        assert victim.interrupted
        assert path.is_file()
        assert len(victim.history) == 4

        resumed = make_trainer(tiny_designs, in_features,
                               checkpoint_path=path)
        ckpt = resumed.load_checkpoint(path)
        assert ckpt.step == 4
        resumed.fit()
        assert not resumed.interrupted
        assert weight_digest(resumed.model) == want_digest
        assert history_key(resumed.history) == want_history
        assert resumed.final_weights_source == baseline.final_weights_source

    def test_hard_kill_resumes_from_periodic_checkpoint(
            self, tiny_designs, in_features, tmp_path):
        """A crash (no graceful stop) between periodic checkpoints loses
        at most ``checkpoint_every - 1`` steps; resuming from the last
        periodic checkpoint still reproduces the uninterrupted run."""
        baseline = make_trainer(tiny_designs, in_features)
        baseline.fit()
        want = weight_digest(baseline.model)

        class SimulatedCrash(RuntimeError):
            pass

        def crash(trainer):
            raise SimulatedCrash("killed without warning")

        config = replace(FAST, checkpoint_every=3)
        path = tmp_path / CHECKPOINT_NAME
        victim = make_trainer(tiny_designs, in_features, config=config,
                              checkpoint_path=path)
        interfere_after(victim, 5, crash)
        with pytest.raises(SimulatedCrash):
            victim.fit()
        ckpt = load_checkpoint(path)
        assert ckpt.step == 3  # the last periodic checkpoint

        resumed = make_trainer(tiny_designs, in_features, config=config,
                               checkpoint_path=path)
        resumed.load_checkpoint(path)
        resumed.fit()
        assert weight_digest(resumed.model) == want
        assert history_key(resumed.history) == \
            history_key(baseline.history)


class TestKillMidSave:
    def test_crash_during_replace_leaves_previous_checkpoint(
            self, tiny_designs, in_features, tmp_path, monkeypatch):
        """A kill at the worst moment (inside the final rename) must
        neither corrupt the existing checkpoint nor leave temp litter."""
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / CHECKPOINT_NAME
        trainer.save_checkpoint(step=2, path=path)
        before = path.read_bytes()

        def dying_replace(src, dst):
            raise OSError("simulated kill during rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated kill"):
            trainer.save_checkpoint(step=5, path=path)
        monkeypatch.undo()

        assert path.read_bytes() == before  # old checkpoint untouched
        assert load_checkpoint(path).step == 2
        assert [p for p in tmp_path.iterdir() if p != path] == []

    def test_fresh_save_crash_leaves_nothing(self, tiny_designs,
                                             in_features, tmp_path,
                                             monkeypatch):
        trainer = make_trainer(tiny_designs, in_features)
        path = tmp_path / "sub" / CHECKPOINT_NAME

        def dying_replace(src, dst):
            raise OSError("simulated kill during rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            trainer.save_checkpoint(step=1, path=path)
        monkeypatch.undo()
        assert not path.exists()
        assert list(path.parent.iterdir()) == []
