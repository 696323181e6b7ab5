"""Unit tests for the trace/compile/replay layer (repro.nn.compile).

The compiled step's contract is *bit-for-bit* equivalence with eager
execution (DESIGN.md §11): replaying a program on fresh inputs must
produce exactly the forward values and gradients an eager run on the
same inputs would, so every comparison here is ``np.array_equal`` —
not allclose — except for the documented float32 tolerance.
"""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    CompiledStep,
    CompileError,
    Linear,
    ReplayMismatch,
    Tensor,
    concatenate,
    gather_rows,
    step_index,
    step_input,
    trace,
)
from repro.nn import functional as F
from repro.util import get_timings, reset_timings


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _eager_reference(fn, arrays, params):
    """Eager loss/grads of ``fn`` on fresh tensors built from arrays."""
    for p in params.values():
        p.grad = None
    loss, outs = fn({k: np.asarray(v) for k, v in arrays.items()})
    loss.backward()
    return (
        {k: np.array(t.data, copy=True) for k, t in outs.items()},
        {k: np.array(p.grad, copy=True) for k, p in params.items()},
    )


class _Net:
    """Small MLP-over-two-inputs graph with a few alias/reduce ops."""

    def __init__(self, rng):
        self.mlp = MLP([6, 5, 3], rng)
        self.head = Linear(6, 1, rng)
        self.params = {
            f"p{i}": p for i, p in enumerate(self.mlp.parameters()
                                             + self.head.parameters())
        }

    def loss(self, arrays):
        a = step_input("a", arrays["a"])
        b = step_input("b", arrays["b"])
        h = self.mlp(a)                       # (K, 3)
        h = concatenate([h, h * b], axis=1)   # (K, 6) — reuse, broadcast
        h = h.reshape(-1, 6)                  # alias op
        y = self.head(h.relu())
        loss = (y * y).mean() + h.exp().sum() * 1e-3
        return loss, {"y": y, "loss": loss}


def _compile(net, arrays, dtype="float64"):
    with trace() as tape:
        loss, outs = net.loss(arrays)
    return CompiledStep(tape, loss, outputs=outs, dtype=dtype)


def test_replay_bit_equals_eager_across_changing_inputs(rng):
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)
    for _ in range(3):
        arrays = {"a": rng.standard_normal((4, 6)),
                  "b": rng.standard_normal((4, 3))}
        ref_outs, ref_grads = _eager_reference(net.loss, arrays,
                                               net.params)
        for p in net.params.values():
            p.grad = None
        outs = program.replay(arrays)
        for key in ref_outs:
            assert np.array_equal(outs[key], ref_outs[key]), key
        for key, p in net.params.items():
            assert np.array_equal(p.grad, ref_grads[key]), key


def test_replay_tracks_inplace_parameter_updates(rng):
    """Optimizer-style in-place updates flow into the next replay."""
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)
    program.replay(arrays)
    for p in net.params.values():
        # repro-check: disable=tensor-data-mutation -- optimizer-style in-place step
        p.data -= 0.01 * p.grad
    ref_outs, ref_grads = _eager_reference(net.loss, arrays, net.params)
    outs = program.replay(arrays)
    assert np.array_equal(outs["loss"], ref_outs["loss"])
    for key, p in net.params.items():
        assert np.array_equal(p.grad, ref_grads[key]), key


def test_gather_rows_index_rebinding(rng):
    """step_index inputs are refreshed per replay (dynamic gathers)."""
    table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)

    def fn(arrays):
        rows = step_index("rows", arrays["rows"])
        picked = gather_rows(table, rows)
        loss = (picked * picked).sum()
        return loss, {"picked": picked}

    with trace() as tape:
        loss, outs = fn({"rows": np.array([0, 2, 4])})
    program = CompiledStep(tape, loss, outputs=outs)
    for idx in ([1, 1, 5], [3, 0, 2]):
        arrays = {"rows": np.array(idx)}
        table.grad = None
        eager_outs, _ = _eager_reference(fn, arrays, {})
        expected_grad = np.array(table.grad, copy=True)
        table.grad = None
        outs = program.replay(arrays)
        assert np.array_equal(outs["picked"], eager_outs["picked"])
        assert np.array_equal(table.grad, expected_grad)


def test_input_shape_change_raises_replay_mismatch(rng):
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)
    with pytest.raises(ReplayMismatch):
        program.replay({"a": rng.standard_normal((5, 6)),
                        "b": rng.standard_normal((5, 3))})


def test_missing_input_raises_replay_mismatch(rng):
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)
    with pytest.raises(ReplayMismatch):
        program.replay({"a": arrays["a"]})


def test_rebound_parameter_raises_replay_mismatch(rng):
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)
    param = net.params["p0"]
    param.data = param.data.copy()   # rebind (not in-place)
    with pytest.raises(ReplayMismatch):
        program.replay(arrays)


def test_non_scalar_root_rejected(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with trace() as tape:
        y = x * 2.0
    with pytest.raises(CompileError):
        CompiledStep(tape, y)


def test_float32_mode_close_to_eager(rng):
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays, dtype="float32")
    ref_outs, ref_grads = _eager_reference(net.loss, arrays, net.params)
    for p in net.params.values():
        p.grad = None
    outs = program.replay(arrays)
    assert outs["loss"].dtype == np.float32
    np.testing.assert_allclose(outs["loss"], ref_outs["loss"],
                               rtol=1e-5)
    for key, p in net.params.items():
        assert p.grad.dtype == np.float64   # cast back for the optimizer
        np.testing.assert_allclose(p.grad, ref_grads[key],
                                   rtol=1e-3, atol=1e-5)


def test_conv_pool_graph_bit_equals_eager(rng):
    """Spatial ops (conv/pool/GAP) replay bit-exactly too."""
    from repro.nn import Conv2d

    conv = Conv2d(2, 3, kernel_size=3, rng=rng)
    params = {f"c{i}": p for i, p in enumerate(conv.parameters())}

    def fn(arrays):
        img = step_input("img", arrays["img"])
        h = conv(img).relu()
        h = F.max_pool2d(h, 2)
        h = F.global_avg_pool2d(h)
        loss = (h * h).sum()
        return loss, {"h": h}

    arrays = {"img": rng.standard_normal((2, 2, 8, 8))}
    with trace() as tape:
        loss, outs = fn(arrays)
    program = CompiledStep(tape, loss, outputs=outs)
    arrays = {"img": rng.standard_normal((2, 2, 8, 8))}
    ref_outs, ref_grads = _eager_reference(fn, arrays, params)
    for p in params.values():
        p.grad = None
    outs = program.replay(arrays)
    assert np.array_equal(outs["h"], ref_outs["h"])
    for key, p in params.items():
        assert np.array_equal(p.grad, ref_grads[key]), key


def test_profiled_replay_populates_op_profile(rng):
    """A profiled replay times every kernel into the timing registry,
    one ``op.fwd.*``/``op.bwd.*`` call per scheduled op; a plain
    replay records none."""
    net = _Net(rng)
    arrays = {"a": rng.standard_normal((4, 6)),
              "b": rng.standard_normal((4, 3))}
    program = _compile(net, arrays)

    def op_timings():
        return {name: entry for name, entry in get_timings().items()
                if name.startswith("op.")}

    reset_timings()
    program.replay(arrays)
    assert not op_timings()
    program.replay(arrays, profile=True)
    ops = op_timings()
    assert any(name.startswith("op.fwd.") for name in ops)
    assert any(name.startswith("op.bwd.") for name in ops)
    assert sum(entry["calls"] for entry in ops.values()) == \
        program.num_ops
    for entry in ops.values():
        assert entry["calls"] >= 1
        assert entry["seconds"] >= 0.0
