"""The CNN kernels split over the kernel pool in a training step
(``repro.util.training_step``) compute every bit the serial kernels do,
at any worker count."""

import os
import signal

import numpy as np
import pytest

from repro.nn import ops
from repro.nn.ops import OPS, im2col
from repro.util import threads, training_step


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


@pytest.fixture()
def parts_run(monkeypatch):
    """How many parts each split kernel call ran."""
    counts = []
    run_parts = ops.run_parts

    def counting(work, parts):
        counts.append(len(parts))
        run_parts(work, parts)

    monkeypatch.setattr(ops, "run_parts", counting)
    return counts


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """A training step splits kernels into ``param`` parts, on a pool
    of its own that is shut down after the test."""
    monkeypatch.setattr(threads, "kernel_workers", lambda: request.param)
    monkeypatch.setattr(threads, "_pool", None)
    yield request.param
    if threads._pool is not None:
        threads._pool.shutdown()


def run_op(name, ins, attrs, g, need, state=None, replays=1):
    """Forward and backward of op ``name`` through one state."""
    state = {} if state is None else state
    out = None
    for _ in range(replays):
        out = OPS[name].forward(ins, attrs, out, state)
        grads = OPS[name].backward(g, ins, out, attrs, need, state)
    return (out,) + tuple(grads)


def split_equals_serial(name, ins, attrs, need, seed=0, state=None):
    """Run ``name`` serially, then twice through one state inside a
    training step (the second as a compiled replay would), and compare
    every output and gradient bit."""
    rng = np.random.default_rng(seed)
    out = OPS[name].forward(ins, attrs, None, {} if state is None
                            else dict(state))
    g = rng.standard_normal(out.shape).astype(out.dtype)
    want = run_op(name, ins, attrs, g, need,
                  None if state is None else dict(state))
    with training_step():
        got = run_op(name, ins, attrs, g, need,
                     None if state is None else dict(state), replays=2)
    for got_one, want_one in zip(got, want):
        if want_one is None:
            assert got_one is None
        else:
            assert_bitwise_equal(got_one, want_one)


class TestSplitConv:
    @pytest.mark.parametrize("c_in,c_out,side,need", [
        (3, 6, 32, (False, True, True)),    # conv1: images need none
        (6, 12, 16, (True, True, True)),    # conv2
        (12, 12, 8, (True, True, True)),    # conv3
    ])
    def test_model_shapes(self, workers, parts_run, c_in, c_out, side,
                          need):
        """The layout CNN's three convolutions at 40 sampled paths:
        10, 5 and 3 chunks of the default ``_CHUNK_BYTES``."""
        rng = np.random.default_rng(side)
        x = rng.standard_normal((40, c_in, side, side))
        w = rng.standard_normal((c_out, c_in, 3, 3))
        b = rng.standard_normal(c_out)
        split_equals_serial("conv2d", [x, w, b],
                            {"stride": 1, "padding": 1}, need)
        assert max(parts_run) == workers

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_stride_two(self, workers, parts_run, monkeypatch, bias,
                        cached, padding):
        """Stride 2, with and without bias and cached columns, over 4
        chunks with a partial last one."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((7, 2, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        side = (7 + 2 * padding - 3) // 2 + 1
        monkeypatch.setattr(ops, "_CHUNK_BYTES",
                            2 * 2 * 3 * 3 * side * side * x.itemsize)
        ins = [x, w, rng.standard_normal(3)] if bias else [x, w]
        state = {"cached_cols": im2col(x, (3, 3), 2, padding)} \
            if cached else None
        split_equals_serial("conv2d", ins, {"stride": 2, "padding": padding},
                            [True] * len(ins), state=state)
        assert max(parts_run) == workers

    def test_empty_batch(self, workers):
        x = np.zeros((0, 2, 5, 5))
        w = np.ones((3, 2, 3, 3))
        split_equals_serial("conv2d", [x, w], {"stride": 1, "padding": 1},
                            [True, True])


class TestSplitMaxPool:
    @pytest.mark.parametrize("kernel,stride,side", [
        (2, 2, 8),     # windows tile the input
        (2, 2, 7),     # a row and a column no window covers
        (3, 2, 9),     # overlapping windows
        (3, 1, 6),
    ])
    def test_shapes(self, workers, parts_run, kernel, stride, side):
        rng = np.random.default_rng(side)
        # Few distinct values: many windows hold tied maxima.
        x = rng.integers(-2, 3, (5, 3, side, side)).astype(np.float64)
        split_equals_serial("max_pool2d", [x],
                            {"kernel": kernel, "stride": stride}, [True])
        assert max(parts_run) == workers

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2)])
    def test_signed_zero_ties_nan_windows_and_float32(self, workers,
                                                      parts_run, kernel,
                                                      stride):
        x = np.zeros((6, 2, 7, 7), np.float32)
        x[0::2] = -0.0
        x[1, :, 0, 1] = np.nan
        x[3, 1, 2:4, 2:4] = np.nan
        x[4, 0] = np.where(np.arange(7) % 2, -0.0, 0.0)
        split_equals_serial("max_pool2d", [x],
                            {"kernel": kernel, "stride": stride}, [True])
        assert max(parts_run) == workers


def test_more_workers_than_cores_under_a_short_switch_interval(
        monkeypatch):
    """Parts that share output buffers (disjoint rows) keep every bit
    when four workers preempt one another every microsecond."""
    import sys

    monkeypatch.setattr(threads, "kernel_workers", lambda: 4)
    monkeypatch.setattr(threads, "_pool", None)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((24, 3, 32, 32))     # 6 chunks
    w = rng.standard_normal((6, 3, 3, 3))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            split_equals_serial("conv2d", [x, w], {"stride": 1,
                                                   "padding": 1},
                                [True, True])
            split_equals_serial("max_pool2d", [x], {"kernel": 2,
                                                    "stride": 2}, [True])
    finally:
        sys.setswitchinterval(interval)
        if threads._pool is not None:
            threads._pool.shutdown()


class TestRunParts:
    def test_a_worker_error_is_raised_after_every_part_ran(self, workers):
        ran = []

        def work(part):
            ran.append(part)
            if part == workers - 1:
                raise KeyError(part)

        with pytest.raises(KeyError):
            threads.run_parts(work, list(range(workers)))
        assert sorted(ran) == list(range(workers))

    def test_the_callers_error_wins_and_waits_for_the_others(self,
                                                             workers):
        ran = []

        def work(part):
            if part == 0:
                raise ValueError("caller's part")
            ran.append(part)

        with pytest.raises(ValueError, match="caller's part"):
            threads.run_parts(work, list(range(workers)))
        assert sorted(ran) == list(range(1, workers))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_split_kernels(monkeypatch):
    """A child forked after the parent used the pool (a process pool
    of ``--build-workers`` or of the experiments) gets a pool of its
    own: its split kernels run, and compute the serial bits."""
    monkeypatch.setattr(threads, "kernel_workers", lambda: 2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 3, 32, 32))   # 3 chunks
    w = rng.standard_normal((4, 3, 3, 3))
    attrs = {"stride": 1, "padding": 1}
    want = OPS["conv2d"].forward([x, w], attrs, None, {})
    with training_step():
        OPS["conv2d"].forward([x, w], attrs, None, {})
    assert threads._pool is not None
    pid = os.fork()
    if pid == 0:   # pragma: no cover - the child reports by exit code
        code = 1
        try:
            signal.alarm(60)   # a child waiting on a dead pool dies
            with training_step():
                got = OPS["conv2d"].forward([x, w], attrs, None, {})
            code = 0 if got.tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
