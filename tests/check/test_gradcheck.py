"""Tests for the autograd contract auditor."""

import numpy as np

from repro.check.gradcheck import (
    CASES,
    OpCase,
    audit_coverage,
    check_case,
    check_no_grad,
    functional_ops,
    run_gradcheck,
)
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.tensor import _finish


class TestDiscovery:
    def test_functional_surface_discovered(self):
        ops = functional_ops()
        assert set(ops) == {"conv2d", "max_pool2d", "avg_pool2d",
                            "global_avg_pool2d", "log_softmax",
                            "mse_loss"}
        # Private helpers and re-exports stay out of the audit surface.
        assert "Tensor" not in ops
        assert "as_tensor" not in ops

    def test_every_functional_op_has_a_case(self):
        assert audit_coverage() == []

    def test_fused_sweep_is_enrolled(self):
        assert any(c.op == "levelized_sweep" for c in CASES)

    def test_registry_op_without_case_fails_audit(self, monkeypatch):
        from repro.nn.ops import OPS, Op

        monkeypatch.setitem(OPS, "frobnicate", Op(None, None))
        paths = [f.path for f in audit_coverage()]
        assert paths == ["repro.nn.ops.frobnicate"]

    def test_new_op_without_case_fails_audit(self, monkeypatch):
        def frobnicate(x):
            return x

        frobnicate.__module__ = F.__name__
        monkeypatch.setattr(F, "frobnicate", frobnicate, raising=False)
        findings = audit_coverage()
        assert [f for f in findings if "frobnicate" in f.path]


class TestHarness:
    def test_all_registered_cases_pass(self):
        assert run_gradcheck() == []

    def test_wrong_backward_is_caught(self):
        def bad_scale(x):
            def backward(grad, out):
                out._send(x, grad * 3.0)  # truth is 2.0

            return _finish(x.data * 2.0, (x,), backward)

        case = OpCase("bad_scale", "unit",
                      lambda: (bad_scale,
                               {"x": np.linspace(-1.0, 1.0, 5)}))
        problems = check_case(case)
        assert any("gradient mismatch" in p for p in problems)

    def test_nan_forward_is_caught(self):
        def nan_op(x):
            return _finish(np.full_like(x.data, np.nan), (x,),
                           lambda grad, out: out._send(x, grad))

        case = OpCase("nan_op", "unit",
                      lambda: (nan_op, {"x": np.ones(3)}))
        assert any("NaN" in p for p in check_case(case))

    def test_nan_gradient_is_caught(self):
        def nan_grad(x):
            return _finish(x.data.copy(), (x,),
                           lambda grad, out: out._send(
                               x, np.full_like(grad, np.inf)))

        case = OpCase("nan_grad", "unit",
                      lambda: (nan_grad, {"x": np.ones(3)}))
        assert any("NaN/inf" in p for p in check_case(case))

    def test_dtype_drift_is_caught(self):
        def downcast(x):
            # The Tensor constructor coerces to float64, so a drifting op
            # is one that swaps the buffer after graph construction —
            # exactly the silent failure mode the auditor screens for.
            out = _finish(x.data * 2.0, (x,),
                          lambda grad, out: out._send(x, grad * 2.0))
            out.data = out.data.astype(np.float32)
            return out

        case = OpCase("downcast", "unit",
                      lambda: (downcast, {"x": np.ones(3)}))
        assert any("dtype" in p for p in check_case(case))

    def test_missing_gradient_is_caught(self):
        def swallow(x):
            return _finish(x.data * 2.0, (x,), lambda grad, out: None)

        case = OpCase("swallow", "unit",
                      lambda: (swallow, {"x": np.ones(3)}))
        assert any("no gradient reached" in p for p in check_case(case))

    def test_raising_backward_is_reported(self):
        def explode(x):
            def backward(grad, out):
                raise ValueError("backward exploded")

            return _finish(x.data * 2.0, (x,), backward)

        case = OpCase("explode", "unit",
                      lambda: (explode, {"x": np.ones(3)}))
        (problem,) = check_case(case)
        assert problem.startswith("raised ValueError in backward (")
        assert problem.endswith("): backward exploded")

    def test_non_tensor_return_is_caught(self):
        case = OpCase("raw", "unit",
                      lambda: (lambda x: x.data, {"x": np.ones(3)}))
        assert any("expected Tensor" in p for p in check_case(case))

    def test_correct_custom_op_passes(self):
        def double(x):
            def backward(grad, out):
                out._send(x, grad * 2.0)

            return _finish(x.data * 2.0, (x,), backward)

        case = OpCase("double", "unit",
                      lambda: (double, {"x": np.linspace(-1.0, 1.0, 7)}))
        assert check_case(case) == []

    def test_no_grad_contract_holds_for_registry(self):
        for op_case in CASES:
            assert check_no_grad(op_case) == [], op_case.op

    def test_no_grad_graph_leak_is_caught(self):
        def leaky(x):
            # Hand-wires a graph node, bypassing the Tensor._make gate
            # that normally drops wiring under no_grad().
            out = Tensor(x.data * 2.0, requires_grad=True)
            out._parents = (x,)
            out._backward = lambda grad: None
            return out

        case = OpCase("leaky", "unit",
                      lambda: (leaky, {"x": np.ones(3)}))
        problems = check_no_grad(case)
        assert any("parent" in p for p in problems)
        assert any("backward closure" in p for p in problems)
        assert any("requires_grad" in p for p in problems)

    def test_no_grad_value_drift_is_caught(self):
        from repro.nn import is_grad_enabled

        def drifty(x):
            # An inference "fast path" that is not bit-identical.
            scale = 2.0 if is_grad_enabled() else 2.0 + 1e-12
            return _finish(x.data * scale, (x,),
                           lambda grad, out: out._send(x, grad * scale))

        case = OpCase("drifty", "unit",
                      lambda: (drifty, {"x": np.ones(3)}))
        assert any("bit-identical" in p for p in check_no_grad(case))

    def test_no_grad_correct_op_passes(self):
        def double(x):
            return _finish(x.data * 2.0, (x,),
                           lambda grad, out: out._send(x, grad * 2.0))

        case = OpCase("double", "unit",
                      lambda: (double, {"x": np.linspace(-1.0, 1.0, 7)}))
        assert check_no_grad(case) == []

    def test_case_inputs_are_not_shared_between_runs(self):
        """check_case must not mutate the builder's arrays in place."""
        base = np.linspace(0.0, 1.0, 4)
        holder = {"x": base}
        case = OpCase(
            "identity", "unit",
            lambda: (lambda x: _finish(
                x.data.copy(), (x,),
                lambda grad, out: out._send(x, grad)), holder))
        check_case(case)
        np.testing.assert_array_equal(base, np.linspace(0.0, 1.0, 4))
