"""Compiled training step vs. eager: bit-exactness, retraces, resume.

The compile layer's contract is stronger than the fused-vs-looped one:
a compiled (float64) run must be *bit-for-bit* identical to the eager
fused run — same loss stream, same final weights — which also makes
eager and compiled checkpoints interchangeable mid-run.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.features import GateVocabulary, normalize_features
from repro.flow import run_flow
from repro.model import TimingPredictor
from repro.nn import CheckpointError
from repro.techlib import make_asap7_library, make_sky130_library
from repro.train import OursTrainer, TrainConfig
from repro.util import get_timings, reset_timings

BASE = TrainConfig(steps=8, lr=3e-3, batch_endpoints=24, seed=0,
                   gamma1=1.0, gamma2=30.0, holdout_fraction=0.0)


@pytest.fixture(scope="module")
def designs():
    libraries = {"130nm": make_sky130_library(),
                 "7nm": make_asap7_library()}
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


def _make_trainer(designs, in_features, **overrides):
    config = replace(BASE, **overrides)
    model = TimingPredictor(in_features, seed=config.seed)
    return OursTrainer(model, designs, config)


def _run(trainer, steps, warmup_steps=2):
    return [trainer.step(warmup=(t < warmup_steps))
            for t in range(steps)]


def _loss_keys(history):
    """Step records minus wall-clock noise, for exact comparison."""
    return [{k: v for k, v in record.items() if k != "step_seconds"}
            for record in history]


class TestBitExactness:
    def test_compiled_run_equals_eager_run(self, designs, in_features):
        eager = _make_trainer(designs, in_features, compile=False)
        compiled = _make_trainer(designs, in_features, compile=True)
        h_eager = _run(eager, 6)
        h_compiled = _run(compiled, 6)
        assert _loss_keys(h_compiled) == _loss_keys(h_eager)
        for p_c, p_e in zip(compiled.model.parameters(),
                            eager.model.parameters()):
            assert np.array_equal(p_c.data, p_e.data)
        # One program replays every step through the warmup -> main
        # boundary (the loss weights are step inputs), no fallbacks.
        assert len(compiled._programs) == 1
        assert compiled.retraces == 0
        (program,) = compiled._programs.values()
        assert program.replays == len(h_compiled)
        assert [r["warmup"] for r in h_compiled] == [True] * 2 + [False] * 4

    def test_float32_mode_stays_close(self, designs, in_features):
        eager = _make_trainer(designs, in_features, compile=False)
        f32 = _make_trainer(designs, in_features, compile=True,
                            dtype="float32")
        h_eager = _run(eager, 4)
        h_f32 = _run(f32, 4)
        for rec_f, rec_e in zip(h_f32, h_eager):
            assert rec_f["total"] == pytest.approx(rec_e["total"],
                                                   rel=1e-4)


class TestRetrace:
    def test_batch_shape_change_compiles_new_program(self, designs,
                                                     in_features):
        eager = _make_trainer(designs, in_features, compile=False)
        compiled = _make_trainer(designs, in_features, compile=True)

        def patched_sampler(counter):
            sizes = [(10, 6), (8, 4)]
            def sample():
                a, b = sizes[counter["n"] % 2]
                counter["n"] += 1
                return [np.arange(a), np.arange(b)]
            return sample

        eager._sample_subsets = patched_sampler({"n": 0})
        compiled._sample_subsets = patched_sampler({"n": 0})
        h_eager = _run(eager, 5, warmup_steps=0)
        h_compiled = _run(compiled, 5, warmup_steps=0)
        assert _loss_keys(h_compiled) == _loss_keys(h_eager)
        # One program per batch-shape signature, no failed replays.
        assert len(compiled._programs) == 2
        assert compiled.retraces == 0

    def test_rebound_parameter_triggers_retrace(self, designs,
                                                in_features):
        eager = _make_trainer(designs, in_features, compile=False)
        compiled = _make_trainer(designs, in_features, compile=True)
        h_eager = [eager.step(), eager.step()]
        h_compiled = [compiled.step()]
        # Rebind a parameter array (allocation, not in-place write):
        # the stale program must be dropped and retraced, not replayed.
        param = compiled.model.parameters()[0]
        param.data = param.data.copy()
        h_compiled.append(compiled.step())
        assert compiled.retraces == 1
        assert _loss_keys(h_compiled) == _loss_keys(h_eager)


class TestCheckpointInterchange:
    @pytest.mark.parametrize("first,second", [(True, False),
                                              (False, True)])
    def test_resume_across_execution_modes(self, designs, in_features,
                                           tmp_path, first, second):
        """A checkpoint from either mode resumes identically in both."""
        reference = _make_trainer(designs, in_features, compile=first)
        _run(reference, 4)
        ckpt = tmp_path / "mid.npz"
        reference.save_checkpoint(step=4, path=ckpt)
        tail_ref = [reference.step() for _ in range(3)]

        resumed = _make_trainer(designs, in_features, compile=second)
        resumed.load_checkpoint(ckpt)
        tail_resumed = [resumed.step() for _ in range(3)]
        assert _loss_keys(tail_resumed) == _loss_keys(tail_ref)
        for p_r, p_o in zip(resumed.model.parameters(),
                            reference.model.parameters()):
            assert np.array_equal(p_r.data, p_o.data)

    def test_checkpoint_without_new_config_keys_loads(self, designs,
                                                      in_features,
                                                      tmp_path):
        """Checkpoints predating compile/dtype stay loadable."""
        trainer = _make_trainer(designs, in_features)
        _run(trainer, 3)
        ckpt = tmp_path / "old.npz"
        trainer.save_checkpoint(step=3, path=ckpt)
        with np.load(ckpt) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(str(arrays["meta"]))
        del meta["config"]["compile"]
        del meta["config"]["dtype"]
        arrays["meta"] = np.array(json.dumps(meta))
        old = tmp_path / "pre-compile.npz"
        np.savez(old, **arrays)

        # Default (float64) configs accept the old checkpoint...
        fresh = _make_trainer(designs, in_features)
        fresh.load_checkpoint(old)
        # ...but float32 changes the math and must refuse it.
        f32 = _make_trainer(designs, in_features, dtype="float32")
        with pytest.raises(CheckpointError):
            f32.load_checkpoint(old)


class TestProfiling:
    def test_profiled_steps_populate_op_stats(self, designs,
                                              in_features):
        trainer = _make_trainer(designs, in_features)
        trainer.profile_ops = True
        reset_timings()
        _run(trainer, 2, warmup_steps=0)
        ops = [name for name in get_timings() if name.startswith("op.")]
        assert trainer._programs
        assert any(name.startswith("op.fwd.") for name in ops)
        assert any(name.startswith("op.bwd.") for name in ops)
