"""Gradcheck coverage for the fused kernels, via repro.check.

Three kernels carry the training and serving math: the union-graph
levelised sweep, the BLAS-backed ``conv2d`` (optionally fed precomputed
im2col columns) and ``max_pool2d``.  Each is audited here with the
:mod:`repro.check.gradcheck` harness — finite differences against the
analytic gradients — and the sweep additionally against a per-level
autograd composition that lives only in this file, as its test oracle.
"""

import numpy as np
import pytest

from repro.check.gradcheck import OpCase, check_case, make_sweep_fixture
from repro.model.gnn import _plan_for, levelized_sweep
from repro.nn import Tensor, gather_rows, no_grad, scatter_add_rows
from repro.nn import functional as F


def assert_case_clean(op, label, build, atol=1e-5):
    problems = check_case(OpCase(op, label, build, atol=atol))
    assert problems == [], "\n".join(problems)


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def reference_node_embeddings(gnn, graph):
    """``TimingGNN.node_embeddings`` as a per-level composition of
    gather/scatter autograd ops — the oracle for the fused sweep."""
    s = gnn.lin_self(Tensor(graph.features))
    n = graph.num_nodes
    level0 = graph.levels[0]
    h = scatter_add_rows(gather_rows(s, level0).relu(), level0, n)
    for step in _plan_for(graph).steps:
        dst = step["dst"]
        total = gather_rows(s, dst)
        for kind, lin in (("net", gnn.lin_net), ("cell", gnn.lin_cell)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            msgs = lin(gather_rows(h, src))
            agg = scatter_add_rows(msgs, step[f"{kind}_dst_local"],
                                   len(dst))
            total = total + agg * Tensor(step[f"{kind}_inv_count"])
        h = h + scatter_add_rows(total.relu(), dst, n)
    return h


class TestFusedConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_blas_conv2d_gradcheck(self, stride, padding):
        rng = np.random.default_rng(31)
        inputs = {"x": rng.standard_normal((2, 3, 6, 6)),
                  "weight": rng.standard_normal((4, 3, 3, 3)) * 0.3,
                  "bias": rng.standard_normal(4)}
        assert_case_clean(
            "conv2d", f"blas-s{stride}-p{padding}",
            lambda: (lambda x, weight, bias: F.conv2d(
                x, weight, bias, stride=stride, padding=padding), inputs))

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_precomputed_columns_change_nothing(self, stride, padding):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        results = []
        for cols in (None, F._im2col(x, (3, 3), stride, padding)):
            tx, tw, tb = (Tensor(a.copy(), requires_grad=True)
                          for a in (x, w, b))
            out = F.conv2d(tx, tw, tb, stride=stride, padding=padding,
                           cols=cols)
            upstream = np.random.default_rng(33).standard_normal(out.shape)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, tx.grad, tw.grad, tb.grad))
        for plain, cached in zip(*results):
            assert_bitwise_equal(plain, cached)


class TestFusedMaxPool:
    @staticmethod
    def tie_free_input(shape, seed):
        rng = np.random.default_rng(seed)
        flat = np.arange(int(np.prod(shape)), dtype=np.float64)
        rng.shuffle(flat)
        return (flat * 1e-2).reshape(shape)

    def test_non_overlapping_backward_gradcheck(self):
        x = self.tie_free_input((2, 3, 6, 6), seed=33)
        assert_case_clean(
            "max_pool2d", "fused-non-overlapping",
            lambda: (lambda x: F.max_pool2d(x, kernel=2, stride=2),
                     {"x": x}))

    @pytest.mark.parametrize("stride", [2, 1])
    def test_pool_then_relu_equals_relu_then_pool(self, stride):
        """``LayoutCNN`` applies ReLU after pooling: max and ReLU
        commute, so values and gradients must be exactly those of the
        ReLU-then-pool order, even on windows full of ties and of
        non-positive values (where the two orders route through
        different argmax cells)."""
        rng = np.random.default_rng(34)
        side = (6 - 2) // stride + 1
        for _ in range(200):
            x = rng.integers(-2, 3, size=(2, 2, 6, 6)).astype(float)
            upstream = Tensor(rng.standard_normal((2, 2, side, side)))
            values, grads = [], []
            for pool_first in (True, False):
                t = Tensor(x.copy(), requires_grad=True)
                if pool_first:
                    out = F.max_pool2d(t, 2, stride).relu()
                else:
                    out = F.max_pool2d(t.relu(), 2, stride)
                (out * upstream).sum().backward()
                values.append(out.data)
                grads.append(t.grad)
                with no_grad():
                    t = Tensor(x)
                    fast = F.max_pool2d(t, 2, stride).relu() if pool_first \
                        else F.max_pool2d(t.relu(), 2, stride)
                values.append(fast.data)
            for value in values[1:]:
                assert_bitwise_equal(value, values[0])
            assert_bitwise_equal(grads[0], grads[1])


class TestFusedLevelizedSweep:
    def test_sweep_gradcheck(self):
        graph, plan, inputs = make_sweep_fixture(seed=35)
        assert_case_clean(
            "levelized_sweep", "fixture-seed-35",
            lambda: (lambda s, w_net, w_cell: levelized_sweep(
                s, w_net, w_cell, plan, graph.levels[0],
                graph.features.shape[0]), inputs),
            atol=1e-4)

    def test_union_graph_sweep_gradcheck(self):
        """The sweep stays gradcheck-clean on a merged (union) graph."""
        from repro.features import PinGraph
        from repro.train.fused import merge_pin_graphs

        graph_a, _, _ = make_sweep_fixture(seed=36)
        graph_b = PinGraph(
            features=np.zeros((5, 1)),
            net_edges=np.array([[0, 1], [2, 3]], dtype=np.int64),
            cell_edges=np.array([[1, 3], [2, 4]], dtype=np.int64),
            levels=[np.array([0, 1]), np.array([2, 3]), np.array([4])],
            row_of_pin={},
            endpoint_rows=np.array([4]),
            endpoint_names=["ep"],
        )
        union = merge_pin_graphs([graph_a, graph_b])
        plan = _plan_for(union)
        rng = np.random.default_rng(37)
        inputs = {
            "s": rng.standard_normal((union.num_nodes, 3)) + 0.4,
            "w_net": rng.standard_normal((3, 3)) * 0.5,
            "w_cell": rng.standard_normal((3, 3)) * 0.5,
        }
        assert_case_clean(
            "levelized_sweep", "union-graph",
            lambda: (lambda s, w_net, w_cell: levelized_sweep(
                s, w_net, w_cell, plan, union.levels[0],
                union.num_nodes), inputs),
            atol=1e-4)

    def test_fused_matches_reference_composition(self):
        """Same outputs and gradients as the per-level composition."""
        from repro.model.gnn import TimingGNN

        graph, _, _ = make_sweep_fixture(seed=38)
        graph.features = np.random.default_rng(41).standard_normal((8, 1))
        results = {}
        for mode in ("fused", "reference"):
            gnn = TimingGNN(1, hidden=3, out_features=2,
                            rng=np.random.default_rng(40))
            if mode == "reference":
                h = reference_node_embeddings(gnn, graph)
                out = gnn.lin_out(gather_rows(h, graph.endpoint_rows))
            else:
                out = gnn(graph)
            (out * out).sum().backward()
            results[mode] = {name: p.grad.copy() for name, p
                             in gnn.named_parameters() if p.grad is not None}
            results[mode]["output"] = out.data
        assert results["fused"].keys() == results["reference"].keys()
        for name in results["fused"]:
            np.testing.assert_allclose(
                results["fused"][name], results["reference"][name],
                atol=1e-9, err_msg=name)
