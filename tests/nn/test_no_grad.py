"""The no-grad forward path: semantics, equivalence, and graph absence.

``no_grad()`` must (a) be a reentrant context manager and decorator,
(b) be thread-local, (c) leave forward values bit-identical to the
grad-enabled path, and (d) suppress *all* graph construction — no
parents, no backward closures, no requires_grad — for every op routed
through ``Tensor._make``.
"""

import threading

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Sequential,
    Tensor,
    enable_grad,
    functional as F,
    is_grad_enabled,
    no_grad,
)


def _graph_free(t: Tensor) -> bool:
    return (not t.requires_grad and t._parents == ()
            and t._backward is None)


class TestGradModeFlag:
    def test_default_enabled(self):
        assert is_grad_enabled()

    def test_no_grad_toggles_and_restores(self):
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nesting_is_reentrant(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_enable_grad_inside_no_grad(self):
        with no_grad():
            with enable_grad():
                assert is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def f():
            return is_grad_enabled()

        assert f() is False
        assert is_grad_enabled()

    def test_thread_locality(self):
        seen = {}

        def worker():
            seen["worker"] = is_grad_enabled()

        with no_grad():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert not is_grad_enabled()
        # The other thread never saw this thread's no_grad block.
        assert seen["worker"] is True


class TestNoGradGraph:
    def test_binary_op_builds_no_graph(self):
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        b = Tensor(np.full((3, 3), 2.0), requires_grad=True)
        with no_grad():
            out = a @ b + a
        assert _graph_free(out)

    def test_grad_graph_kept_outside(self):
        a = Tensor(np.ones((3, 3)), requires_grad=True)
        out = (a * 2.0).sum()
        assert out.requires_grad
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((3, 3), 2.0))

    def test_backward_on_no_grad_output_is_inert(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            out = (a * 3.0).sum()
        out.backward()  # no graph: must not touch a.grad (or crash)
        assert a.grad is None

    def test_mlp_forward_bit_identical(self):
        rng = np.random.default_rng(0)
        net = Sequential(Linear(8, 16, rng=rng), Linear(16, 4, rng=rng))
        x = Tensor(rng.standard_normal((5, 8)))
        ref = net(x).relu().data
        with no_grad():
            out = net(x).relu()
        assert _graph_free(out)
        np.testing.assert_array_equal(out.data, ref)

    def test_conv_forward_bit_identical(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)),
                   requires_grad=True)
        ref = F.conv2d(x, w).data
        with no_grad():
            out = F.conv2d(x, w)
        assert _graph_free(out)
        np.testing.assert_array_equal(out.data, ref)

    def test_reductions_and_activations(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        with no_grad():
            for out in (a.sigmoid(), a.tanh(), a.sum(), a.mean(),
                        F.log_softmax(a), a.exp(),
                        (a * a).reshape(2, 12)):
                assert _graph_free(out)

    def test_predictor_forward_bit_identical(self, designs, model):
        design = designs[0]
        ref = model.predict(design)
        with no_grad():
            out = model.predict(design)
        np.testing.assert_array_equal(out, ref)


@pytest.fixture(scope="module")
def designs():
    from repro.features import GateVocabulary, normalize_features
    from repro.flow import run_flow
    from repro.techlib import make_asap7_library, make_sky130_library

    libraries = {"130nm": make_sky130_library(),
                 "7nm": make_asap7_library()}
    vocab = GateVocabulary(list(libraries.values()))
    out = [run_flow("usbf_device", "7nm", libraries, vocab=vocab,
                    resolution=16)]
    normalize_features([d.graph for d in out])
    return out


@pytest.fixture(scope="module")
def model(designs):
    from repro.model import TimingPredictor

    m = TimingPredictor(designs[0].graph.features.shape[1], seed=0)
    m.finalize_node_priors(designs)
    return m
