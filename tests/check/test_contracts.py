"""The tensor-contract checker over recorded compile traces.

Two angles: hand-built :class:`~repro.nn.compile.TraceOp` records pin
each central check (dtype narrowing, aliasing, shape contracts) with
surgical inputs, and real traces through the autograd engine confirm
the metadata exporter and the whole gradcheck-case sweep come back
clean — all without executing a single training step.
"""

import numpy as np
import pytest

from repro.check.contracts import (CONTRACTS, audit_contract_coverage,
                                   check_records, run_contract_checks)
from repro.nn import Tensor
from repro.nn import compile as nc
from repro.nn.compile import KERNELS, TraceOp, tape_metadata

F64 = np.dtype(np.float64)
F32 = np.dtype(np.float32)


def _rec(op, out_shape, in_shapes, out_dtype=F64, in_dtypes=None,
         attrs=None, aliases=None, index=0):
    in_dtypes = in_dtypes if in_dtypes is not None \
        else [F64] * len(in_shapes)
    aliases = aliases if aliases is not None else [False] * len(in_shapes)
    return TraceOp(op, tuple(out_shape), out_dtype,
                   [tuple(s) for s in in_shapes], list(in_dtypes),
                   dict(attrs or {}), list(aliases), index)


def _messages(records):
    return [f.message for f in check_records(records, "test")]


# ----------------------------------------------------------------------
# Central checks on hand-built records
# ----------------------------------------------------------------------
class TestCentralChecks:
    def test_clean_record_produces_no_findings(self):
        assert _messages([_rec("add", (3, 4), [(3, 4), (3, 4)])]) == []

    def test_unknown_kernel_is_flagged(self):
        msgs = _messages([_rec("frobnicate", (3,), [(3,)])])
        assert len(msgs) == 1
        assert "no registered compile kernel" in msgs[0]

    def test_dtype_narrowing_is_flagged(self):
        msgs = _messages([_rec("add", (3,), [(3,), (3,)],
                               out_dtype=F32, in_dtypes=[F64, F64])])
        assert len(msgs) == 1
        assert "dtype narrowed" in msgs[0]

    def test_uniform_float32_is_not_narrowing(self):
        assert _messages([_rec("add", (3,), [(3,), (3,)],
                               out_dtype=F32,
                               in_dtypes=[F32, F32])]) == []

    def test_aliasing_on_non_view_op_is_flagged(self):
        msgs = _messages([_rec("add", (3,), [(3,), (3,)],
                               aliases=[True, False])])
        assert len(msgs) == 1
        assert "aliases input(s) [0]" in msgs[0]

    def test_view_ops_are_the_registry_alias_ops(self):
        from repro.check.contracts import VIEW_OPS

        assert VIEW_OPS == {"reshape", "transpose", "getitem"}
        assert VIEW_OPS == {name for name, op in KERNELS.items()
                            if op.alias}

    def test_aliasing_on_view_op_is_expected(self):
        assert _messages([_rec("reshape", (6,), [(2, 3)],
                               aliases=[True])]) == []


class TestShapeContracts:
    def test_broadcast_failure(self):
        msgs = _messages([_rec("add", (3,), [(3,), (4,)])])
        assert any("do not broadcast" in m for m in msgs)

    def test_elementwise_wrong_output_shape(self):
        msgs = _messages([_rec("mul", (3,), [(3, 4), (3, 4)])])
        assert any("broadcast of inputs" in m for m in msgs)

    def test_matmul_inner_dimension_mismatch(self):
        msgs = _messages([_rec("matmul", (3, 6), [(3, 4), (5, 6)])])
        assert any("inner dimensions disagree" in m for m in msgs)

    def test_matmul_wrong_output_shape(self):
        msgs = _messages([_rec("matmul", (4, 4), [(3, 4), (4, 6)])])
        assert any("matmul output shape" in m for m in msgs)

    def test_reshape_element_count_change(self):
        msgs = _messages([_rec("reshape", (7,), [(2, 3)])])
        assert any("changes element count" in m for m in msgs)

    def test_reduce_shape_rule(self):
        clean = _rec("sum", (3,), [(3, 4)], attrs={"axis": 1})
        wrong = _rec("sum", (4,), [(3, 4)],
                     attrs={"axis": 1, "keepdims": False})
        assert _messages([clean]) == []
        assert any("should yield" in m for m in _messages([wrong]))

    def test_every_kernel_has_a_contract(self):
        assert audit_contract_coverage() == []
        assert set(KERNELS) <= set(CONTRACTS)

    def test_coverage_audit_fires_on_uncovered_op(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "fake_op", lambda: None)
        findings = audit_contract_coverage()
        assert len(findings) == 1
        assert findings[0].rule == "contract-coverage"
        assert "'fake_op' has no shape/dtype contract" in findings[0].message


# ----------------------------------------------------------------------
# Real traces through the engine
# ----------------------------------------------------------------------
class TestRealTraces:
    def test_tape_metadata_exports_records(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with nc.trace() as tape:
            y = ((x @ w).relu().sum())
        records = tape_metadata(tape)
        assert [r.op for r in records] == ["matmul", "relu", "sum"]
        first = records[0]
        assert first.out_shape == (2, 2)
        assert tuple(first.in_shapes) == ((2, 3), (3, 2))
        assert all(d == F64 for d in first.in_dtypes)
        assert check_records(records, "smoke") == []

    def test_view_op_alias_recorded_and_accepted(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        with nc.trace() as tape:
            y = x.reshape(2, 3).sum()
        records = tape_metadata(tape)
        reshape_rec = next(r for r in records if r.op == "reshape")
        assert any(reshape_rec.aliases)
        assert check_records(records, "views") == []

    def test_full_gradcheck_sweep_is_clean(self):
        # Every gradcheck case traces and validates without ever
        # building a CompiledStep or running a training step.
        assert run_contract_checks() == []
