"""Autograd contract auditor for the numpy engine.

Generalises the one-off finite-difference harness in
``tests/nn/test_tensor.py`` into a registry-driven audit:

- every primitive op of the registry (:data:`repro.nn.ops.OPS`), every
  public composite of :mod:`repro.nn.functional` and the K-node
  alignment losses must have at least one registered :class:`OpCase`
  (coverage is itself audited, so a new op that forgets to enroll
  fails ``repro check``);
- each case is checked for (1) analytic-vs-central-difference gradient
  agreement on **every** differentiable input, (2) NaN/inf-free
  forward values and gradients, and (3) dtype stability — the engine
  is float64 end to end, so any float32 (or other) drift in outputs or
  gradients is a silent-precision bug;
- each case is additionally run under :func:`repro.nn.no_grad`
  (:func:`check_no_grad`): the output must carry no parents and no
  backward function — anything else is a graph leak on the serving
  path — and its values must be bit-identical to the grad-enabled
  forward, which is the contract that licenses inference-only fast
  paths such as the slice-maximum pooling kernel.

Cases must be deterministic, so the finite-difference re-evaluations
see the same function every time.
"""

from __future__ import annotations

import functools
import inspect
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..nn import (Tensor, concatenate, gather_rows, no_grad,
                  scatter_add_rows, stack, where)
from ..nn import functional as F
from ..nn.ops import OPS, im2col
from .rules import Finding

#: Composite ops audited in addition to the registry and the
#: ``repro.nn.functional`` surface: the K-node alignment losses.
REQUIRED_EXTRA_OPS: Tuple[str, ...] = (
    "node_contrastive_loss_multi", "cmd_loss_multi")

Builder = Callable[[], Tuple[Callable[..., Tensor], Dict[str, np.ndarray]]]
Check = Callable[["OpCase"], List[str]]


@dataclass(frozen=True)
class OpCase:
    """One audited configuration of one autograd op.

    ``build()`` returns ``(fn, inputs)``: calling ``fn`` with each
    input wrapped as a :class:`Tensor` keyword argument must return a
    Tensor, and the gradient w.r.t. *every* input is checked.  Inputs
    an op must not differentiate (targets, masks) are closed over
    inside ``fn`` rather than listed.
    """

    op: str
    label: str
    build: Builder
    atol: float = 1e-5
    eps: float = 1e-6


CASES: List[OpCase] = []


def case(op: str, label: str, atol: float = 1e-5,
         eps: float = 1e-6) -> Callable[[Builder], Builder]:
    """Decorator enrolling a builder function as an :class:`OpCase`."""

    def decorate(build: Builder) -> Builder:
        CASES.append(OpCase(op, label, build, atol=atol, eps=eps))
        return build

    return decorate


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _numeric_grad(value_fn: Callable[[], float], array: np.ndarray,
                  eps: float) -> np.ndarray:
    """Central-difference gradient of ``value_fn`` w.r.t. ``array``.

    ``value_fn`` must read ``array`` afresh on every call (the arrays
    handed to it are mutated in place element by element).
    """
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = value_fn()
        flat[i] = original - eps
        lo = value_fn()
        flat[i] = original
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def _reports_exceptions(check: Check) -> Check:
    """Report an exception escaping ``check`` as that case's problem.

    A case whose build, forward or backward raises is a finding like any
    other, naming the frame that raised, so the audit goes on to the
    remaining cases.
    """

    @functools.wraps(check)
    def guarded(op_case: OpCase) -> List[str]:
        try:
            return check(op_case)
        # repro-check: disable=bare-except -- any failure inside one audited case becomes that case's finding instead of aborting the audit
        except Exception as exc:  # noqa: BLE001 - reported as a finding
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            return [f"raised {type(exc).__name__} in {frame.name} "
                    f"({Path(frame.filename).name}:{frame.lineno}): {exc}"]

    return guarded


@_reports_exceptions
def check_case(op_case: OpCase) -> List[str]:
    """Audit one case; returns a list of human-readable problems."""
    problems: List[str] = []
    fn, inputs = op_case.build()
    arrays = {name: np.asarray(value, dtype=np.float64).copy()
              for name, value in inputs.items()}

    # Forward with gradients enabled.
    tensors = {name: Tensor(value.copy(), requires_grad=True)
               for name, value in arrays.items()}
    out = fn(**tensors)
    if not isinstance(out, Tensor):
        return [f"returned {type(out).__name__}, expected Tensor"]
    if out.data.dtype != np.float64:
        problems.append(
            f"output dtype drifted to {out.data.dtype} (engine contract "
            "is float64 end to end)")
    if not np.all(np.isfinite(out.data)):
        problems.append("forward value contains NaN/inf")
        return problems

    # Scalarise with fixed non-uniform coefficients so transposed or
    # permuted gradients cannot cancel to the right value by symmetry.
    coeff = (np.arange(out.data.size, dtype=np.float64)
             .reshape(out.data.shape) * 0.17 + 0.3)
    loss = (out * Tensor(coeff)).sum()
    loss.backward()

    def value_fn() -> float:
        re_out = fn(**{name: Tensor(value)
                       for name, value in arrays.items()})
        return float((re_out.data * coeff).sum())

    for name, tensor in tensors.items():
        if tensor.grad is None:
            problems.append(f"no gradient reached input '{name}'")
            continue
        if tensor.grad.dtype != np.float64:
            problems.append(f"gradient of '{name}' has dtype "
                            f"{tensor.grad.dtype}, expected float64")
        if tensor.grad.shape != arrays[name].shape:
            problems.append(
                f"gradient of '{name}' has shape {tensor.grad.shape}, "
                f"expected {arrays[name].shape}")
            continue
        if not np.all(np.isfinite(tensor.grad)):
            problems.append(f"gradient of '{name}' contains NaN/inf")
            continue
        numeric = _numeric_grad(value_fn, arrays[name], op_case.eps)
        error = float(np.max(np.abs(tensor.grad - numeric)))
        if error > op_case.atol:
            problems.append(
                f"gradient mismatch on '{name}': max |analytic - "
                f"numeric| = {error:.3e} (atol {op_case.atol:.0e})")
    return problems


@_reports_exceptions
def check_no_grad(op_case: OpCase) -> List[str]:
    """Audit one case's inference contract under :func:`no_grad`.

    With gradients disabled the op must build no graph — no parent
    references, no backward function, ``requires_grad`` off — or every
    serving-path forward would pin its intermediates (a memory leak
    ``backward()`` never releases).  The values must also match the
    grad-enabled forward bit for bit: that equality is what licenses
    inference-only fast paths (e.g. the slice-maximum pooling kernel)
    to diverge in *implementation* from the autograd op.
    """
    problems: List[str] = []
    fn, inputs = op_case.build()
    arrays = {name: np.asarray(value, dtype=np.float64)
              for name, value in inputs.items()}
    reference = fn(**{name: Tensor(value.copy(), requires_grad=True)
                      for name, value in arrays.items()})
    if not isinstance(reference, Tensor):
        return []  # check_case already reports the wrong return type
    with no_grad():
        out = fn(**{name: Tensor(value.copy(), requires_grad=True)
                    for name, value in arrays.items()})
    if not isinstance(out, Tensor):
        return [f"no_grad forward returned {type(out).__name__}, "
                "expected Tensor"]
    if out.requires_grad:
        problems.append("output has requires_grad=True under no_grad()")
    if out._parents:
        problems.append(
            f"output retains {len(out._parents)} parent reference(s) "
            "under no_grad() (graph leak on the serving path)")
    if out._backward is not None:
        problems.append("output carries a backward closure under "
                        "no_grad()")
    if not np.array_equal(reference.data, out.data):
        diff = float(np.max(np.abs(reference.data - out.data)))
        problems.append(
            f"no_grad forward deviates from the autograd forward "
            f"(max |diff| = {diff:.3e}); fast paths must be "
            "bit-identical")
    return problems


@_reports_exceptions
def check_compiled(op_case: OpCase) -> List[str]:
    """Audit one case's trace/compile/replay contract.

    The compiled execution engine (:mod:`repro.nn.compile`) promises
    **bit-for-bit** equivalence with eager execution in float64.  Both
    run the same registry functions, so what this audits is what the
    compiled step adds: its backward schedule, its gradient
    accumulation, its aliasing of view buffers, and the reuse of each
    op's state across replays.  Every case is traced, compiled, and
    replayed twice — once on the traced values and once after mutating
    every input in place (the way the optimizer mutates parameters
    between steps) — and both the forward values and every input
    gradient must equal the eager run exactly.  A compile failure is a
    finding.
    """
    from ..nn import compile as nc

    problems: List[str] = []
    fn, inputs = op_case.build()
    arrays = {name: np.asarray(value, dtype=np.float64).copy()
              for name, value in inputs.items()}
    tensors = {name: Tensor(value.copy(), requires_grad=True)
               for name, value in arrays.items()}
    try:
        with nc.trace() as tape:
            out = fn(**tensors)
            if not isinstance(out, Tensor):
                return []  # check_case already reports this
            coeff = (np.arange(out.data.size, dtype=np.float64)
                     .reshape(out.data.shape) * 0.17 + 0.3)
            loss = (out * Tensor(coeff)).sum()
        program = nc.CompiledStep(tape, loss,
                                  outputs={"out": out, "loss": loss})
    except nc.CompileError as exc:
        return [f"trace does not compile: {exc}"]

    rng = np.random.default_rng(99)
    for replay in range(2):
        if replay:
            # Second pass: overwrite every input in place, exactly the
            # way Adam rewrites parameters between replays.
            for name, tensor in tensors.items():
                # repro-check: disable=tensor-data-mutation -- audit harness perturbs leaves between replays
                tensor.data[...] = arrays[name] \
                    + 0.05 * rng.standard_normal(arrays[name].shape)
        # Eager reference on the current values.
        ref_in = {name: Tensor(tensor.data.copy(), requires_grad=True)
                  for name, tensor in tensors.items()}
        ref_out = fn(**ref_in)
        ((ref_out * Tensor(coeff)).sum()).backward()
        for tensor in tensors.values():
            tensor.grad = None
        result = program.replay()
        tag = "replay" if replay == 0 else "post-mutation replay"
        if not np.array_equal(result["out"], ref_out.data):
            diff = float(np.max(np.abs(result["out"] - ref_out.data)))
            problems.append(
                f"{tag} forward deviates from eager (max |diff| = "
                f"{diff:.3e}); compiled execution must be bit-exact")
        for name, tensor in tensors.items():
            ref_grad = ref_in[name].grad
            if ref_grad is None:
                continue
            if tensor.grad is None:
                problems.append(
                    f"{tag} produced no gradient for input '{name}'")
            elif not np.array_equal(tensor.grad, ref_grad):
                diff = float(np.max(np.abs(tensor.grad - ref_grad)))
                problems.append(
                    f"{tag} gradient of '{name}' deviates from eager "
                    f"(max |diff| = {diff:.3e}); compiled execution "
                    "must be bit-exact")
    return problems


def functional_ops() -> List[str]:
    """Public autograd ops defined by :mod:`repro.nn.functional`."""
    ops = []
    for name in dir(F):
        if name.startswith("_"):
            continue
        obj = getattr(F, name)
        if inspect.isfunction(obj) and obj.__module__ == F.__name__:
            ops.append(name)
    return sorted(ops)


def audited_ops() -> Dict[str, str]:
    """Every op the audit covers -> the path findings name it by."""
    paths = {name: f"repro.nn.functional.{name}"
             for name in list(functional_ops()) + list(REQUIRED_EXTRA_OPS)}
    paths.update({name: f"repro.nn.ops.{name}" for name in OPS})
    return paths


def audit_coverage() -> List[Finding]:
    """Every registry op and composite needs at least one case."""
    covered = {c.op for c in CASES}
    return [
        Finding("gradcheck-coverage", path, 0,
                f"op '{name}' has no registered gradcheck case; add one "
                "with @repro.check.gradcheck.case")
        for name, path in sorted(audited_ops().items())
        if name not in covered
    ]


def audit_compile_coverage() -> List[Finding]:
    """Every composite op must be classified by the compiled engine.

    Registry ops compile by construction (the compiled step runs the
    registry itself).  Every other audited op has to be listed in
    ``COMPOSITE_OPS``, the record that it traces through primitives; an
    unlisted op is a ``repro check`` failure, so how a new op compiles
    is always a reviewed decision.
    """
    from ..nn import compile as nc

    classified = set(OPS) | nc.COMPOSITE_OPS
    return [
        Finding("compile-coverage", path, 0,
                f"op '{name}' is not enrolled with the compiled "
                "execution engine: register it in repro.nn.ops.OPS, or "
                "classify it in COMPOSITE_OPS")
        for name, path in sorted(audited_ops().items())
        if name not in classified
    ]


def run_gradcheck() -> List[Finding]:
    """Audit coverage and every registered case; empty list = clean."""
    findings = audit_coverage() + audit_compile_coverage()
    for op_case in CASES:
        for problem in check_case(op_case):
            findings.append(Finding(
                "gradcheck", f"{op_case.op}:{op_case.label}", 0, problem))
        for problem in check_no_grad(op_case):
            findings.append(Finding(
                "gradcheck-no-grad", f"{op_case.op}:{op_case.label}", 0,
                problem))
        for problem in check_compiled(op_case):
            findings.append(Finding(
                "gradcheck-compiled", f"{op_case.op}:{op_case.label}", 0,
                problem))
    return findings


# ----------------------------------------------------------------------
# Case registry: the primitive ops of repro.nn.ops
# ----------------------------------------------------------------------
def _normal(seed: int, *shapes) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for shape in shapes]


def _off_kinks(seed: int, shape, margin: float = 0.2) -> np.ndarray:
    """Normal values pushed at least ``margin`` away from zero."""
    (x,) = _normal(seed, shape)
    return x + np.where(x >= 0, margin, -margin)


def _distinct(seed: int, shape) -> np.ndarray:
    """A shuffled grid: every pairwise gap > 1e-3 (argmax-stable)."""
    rng = np.random.default_rng(seed)
    flat = np.arange(int(np.prod(shape)), dtype=np.float64)
    rng.shuffle(flat)
    return (flat * 1e-1 - 1.0).reshape(shape)


@case("add", "broadcast-row")
def _add_case():
    a, b = _normal(40, (3, 4), (4,))
    return (lambda a, b: a + b), {"a": a, "b": b}


@case("mul", "broadcast-column")
def _mul_case():
    a, b = _normal(41, (3, 4), (3, 1))
    return (lambda a, b: a * b), {"a": a, "b": b}


@case("neg", "2d")
def _neg_case():
    (x,) = _normal(42, (3, 2))
    return (lambda x: -x), {"x": x}


@case("truediv", "broadcast-row")
def _truediv_case():
    a, b = _normal(43, (3, 4), (4,))
    return (lambda a, b: a / b), {"a": a, "b": np.abs(b) + 0.5}


@case("pow", "cube")
def _pow_case():
    (x,) = _normal(44, (2, 3))
    return (lambda x: x ** 3.0), {"x": x}


@case("pow", "sqrt-positive")
def _sqrt_case():
    (x,) = _normal(45, (2, 3))
    return (lambda x: x.sqrt()), {"x": np.abs(x) + 0.5}


@case("matmul", "2d-by-2d")
def _matmul_case():
    a, b = _normal(46, (3, 4), (4, 2))
    return (lambda a, b: a @ b), {"a": a, "b": b}


@case("matmul", "matrix-by-vector")
def _matmul_vector_case():
    a, b = _normal(47, (3, 4), (4,))
    return (lambda a, b: a @ b), {"a": a, "b": b}


@case("matmul", "batched-by-vector")
def _matmul_batched_vector_case():
    a, b = _normal(67, (2, 3, 4), (4,))
    return (lambda a, b: a @ b), {"a": a, "b": b}


@case("matmul", "vector-by-batched")
def _matmul_vector_batched_case():
    a, b = _normal(68, (4,), (2, 4, 3))
    return (lambda a, b: a @ b), {"a": a, "b": b}


@case("matmul", "vector-by-vector")
def _matmul_dot_case():
    a, b = _normal(69, (4,), (4,))
    return (lambda a, b: a @ b), {"a": a, "b": b}


@case("sum", "axis-0")
def _sum_case():
    (x,) = _normal(48, (3, 4))
    return (lambda x: x.sum(axis=0)), {"x": x}


@case("sum", "all-axes-keepdims")
def _sum_all_case():
    (x,) = _normal(49, (2, 3))
    return (lambda x: x.sum(keepdims=True)), {"x": x}


@case("max", "axis-1-tie-free")
def _max_case():
    return (lambda x: x.max(axis=1)), {"x": _distinct(50, (3, 5))}


@case("reshape", "2d-to-2d")
def _reshape_case():
    (x,) = _normal(51, (3, 4))
    return (lambda x: x.reshape(2, 6)), {"x": x}


@case("transpose", "cyclic-3d")
def _transpose_case():
    (x,) = _normal(52, (2, 3, 4))
    return (lambda x: x.transpose(1, 2, 0)), {"x": x}


@case("getitem", "basic-slice-view")
def _getitem_slice_case():
    (x,) = _normal(53, (4, 5))
    return (lambda x: x[1:, ::2]), {"x": x}


@case("getitem", "fancy-repeated-rows")
def _getitem_fancy_case():
    (x,) = _normal(54, (4, 3))
    return (lambda x: x[np.array([0, 2, 0, 3])]), {"x": x}


@case("relu", "off-kink")
def _relu_case():
    return (lambda x: x.relu()), {"x": _off_kinks(55, (3, 4))}


@case("tanh", "2d")
def _tanh_case():
    (x,) = _normal(56, (3, 4))
    return (lambda x: x.tanh()), {"x": x}


@case("sigmoid", "2d")
def _sigmoid_case():
    (x,) = _normal(57, (3, 4))
    return (lambda x: x.sigmoid()), {"x": x * 3.0}


@case("exp", "2d")
def _exp_case():
    (x,) = _normal(58, (3, 4))
    return (lambda x: x.exp()), {"x": x}


@case("log", "positive")
def _log_case():
    (x,) = _normal(59, (3, 4))
    return (lambda x: x.log()), {"x": np.abs(x) + 0.5}


@case("softplus", "both-branches")
def _softplus_case():
    # Entries above 30 take the linear branch.
    return ((lambda x: x.softplus()),
            {"x": np.array([-4.0, -0.5, 0.3, 2.0, 31.0, 45.0])})


@case("abs", "off-kink")
def _abs_case():
    return (lambda x: x.abs()), {"x": _off_kinks(60, (3, 4))}


@case("clip", "straddles-bounds")
def _clip_case():
    # No entry within 1e-3 of either bound.
    return ((lambda x: x.clip(-0.5, 0.5)),
            {"x": np.array([-1.2, -0.3, 0.1, 0.4, 0.9, -0.7])})


@case("concatenate", "three-parts-axis-1")
def _concatenate_case():
    a, b, c = _normal(61, (2, 3), (2, 1), (2, 2))
    return ((lambda a, b, c: concatenate([a, b, c], axis=1)),
            {"a": a, "b": b, "c": c})


@case("stack", "two-parts-axis-1")
def _stack_case():
    a, b = _normal(62, (3, 2), (3, 2))
    return (lambda a, b: stack([a, b], axis=1)), {"a": a, "b": b}


@case("where", "broadcast-row")
def _where_case():
    a, b = _normal(63, (3, 4), (4,))
    cond = np.random.default_rng(64).random((3, 4)) > 0.5
    return (lambda a, b: where(cond, a, b)), {"a": a, "b": b}


@case("gather_rows", "repeated-rows")
def _gather_rows_case():
    (x,) = _normal(65, (4, 3))
    return ((lambda x: gather_rows(x, np.array([3, 0, 3, 1]))),
            {"x": x})


@case("scatter_add_rows", "colliding-rows")
def _scatter_add_rows_case():
    (x,) = _normal(66, (5, 2))
    return ((lambda x: scatter_add_rows(x, np.array([2, 0, 2, 3, 0]), 4)),
            {"x": x})


# ----------------------------------------------------------------------
# Case registry: repro.nn.functional
# ----------------------------------------------------------------------
@case("log_softmax", "2d-axis-1")
def _log_softmax_case():
    rng = np.random.default_rng(10)
    return (lambda x: F.log_softmax(x, axis=-1),
            {"x": rng.standard_normal((3, 5))})


@case("mse_loss", "vector")
def _mse_case():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((6, 1))
    return (lambda prediction: F.mse_loss(prediction, Tensor(target)),
            {"prediction": rng.standard_normal((6, 1))})


def _conv_inputs(seed: int):
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal((2, 2, 5, 5)),
            "weight": rng.standard_normal((3, 2, 3, 3)) * 0.4,
            "bias": rng.standard_normal(3)}


@case("conv2d", "blas-stride2-pad1")
def _conv2d_case():
    return (lambda x, weight, bias:
            F.conv2d(x, weight, bias, stride=2, padding=1),
            _conv_inputs(15))


@case("conv2d", "precomputed-columns")
def _conv2d_columns_case():
    # The serving path hands conv2d its input's cached im2col columns.
    def fn(x, weight, bias):
        cols = im2col(x.data, weight.shape[2:], 1, 1)
        return F.conv2d(x, weight, bias, padding=1, cols=cols)

    return fn, _conv_inputs(16)


def _pool_input(seed: int, shape=(2, 2, 4, 4)) -> np.ndarray:
    """Pooling input with all pairwise gaps > 1e-4 (argmax-stable)."""
    rng = np.random.default_rng(seed)
    flat = np.arange(int(np.prod(shape)), dtype=np.float64)
    rng.shuffle(flat)
    return (flat * 1e-2).reshape(shape)


@case("max_pool2d", "non-overlapping-fused")
def _max_pool_case():
    return (lambda x: F.max_pool2d(x, kernel=2, stride=2),
            {"x": _pool_input(17)})


@case("max_pool2d", "overlapping-stride1")
def _max_pool_overlap_case():
    return (lambda x: F.max_pool2d(x, kernel=2, stride=1),
            {"x": _pool_input(18)})


@case("avg_pool2d", "kernel2")
def _avg_pool_case():
    rng = np.random.default_rng(20)
    return (lambda x: F.avg_pool2d(x, kernel=2),
            {"x": rng.standard_normal((2, 2, 4, 4))})


@case("global_avg_pool2d", "nchw")
def _global_avg_pool_case():
    rng = np.random.default_rng(21)
    return (lambda x: F.global_avg_pool2d(x),
            {"x": rng.standard_normal((2, 3, 4, 4))})


# ----------------------------------------------------------------------
# Case registry: the fused levelised-sweep node (repro.model.gnn)
# ----------------------------------------------------------------------
def make_sweep_fixture(hidden: int = 3, seed: int = 23):
    """A small 3-level graph plus inputs for the fused sweep kernel.

    Shared with ``tests/nn`` so the fused/reference comparison tests
    drive the exact graph the auditor certifies.
    """
    from ..features import PinGraph
    from ..model.gnn import _plan_for

    rng = np.random.default_rng(seed)
    graph = PinGraph(
        features=np.zeros((8, 1)),
        net_edges=np.array([[0, 1, 3, 4], [3, 4, 6, 7]], dtype=np.int64),
        cell_edges=np.array([[2, 0, 3, 4], [4, 5, 6, 7]], dtype=np.int64),
        levels=[np.array([0, 1, 2]), np.array([3, 4, 5]),
                np.array([6, 7])],
        row_of_pin={},
        endpoint_rows=np.array([6, 7]),
        endpoint_names=["ep0", "ep1"],
    )
    inputs = {
        # Bias pre-activations away from the ReLU kink at zero so the
        # finite-difference probe never crosses it.
        "s": rng.standard_normal((8, hidden)) + 0.4,
        "w_net": rng.standard_normal((hidden, hidden)) * 0.5,
        "w_cell": rng.standard_normal((hidden, hidden)) * 0.5,
    }
    return graph, _plan_for(graph), inputs


@case("levelized_sweep", "fused-union-kernel", atol=1e-4)
def _levelized_sweep_case():
    from ..model.gnn import levelized_sweep

    graph, plan, inputs = make_sweep_fixture()

    def fn(s, w_net, w_cell):
        return levelized_sweep(s, w_net, w_cell, plan, graph.levels[0],
                               graph.features.shape[0])

    return fn, inputs


@case("node_contrastive_loss_multi", "three-node-chain", atol=1e-4)
def _contrastive_multi_case():
    from ..model.losses import node_contrastive_loss_multi

    rng = np.random.default_rng(7)
    inputs = {
        "g0": rng.standard_normal((3, 5)),
        "g1": rng.standard_normal((4, 5)),
        "g2": rng.standard_normal((2, 5)),
    }

    def fn(g0, g1, g2):
        return node_contrastive_loss_multi((g0, g1, g2),
                                           temperature=0.7)

    return fn, inputs


@case("node_contrastive_loss_multi", "two-node-pair-form", atol=1e-4)
def _contrastive_pair_case():
    from ..model.losses import node_contrastive_loss

    rng = np.random.default_rng(11)
    inputs = {
        "u_source": rng.standard_normal((4, 6)),
        "u_target": rng.standard_normal((3, 6)),
    }

    def fn(u_source, u_target):
        return node_contrastive_loss(u_source, u_target,
                                     temperature=0.5)

    return fn, inputs


@case("cmd_loss_multi", "vs-target-three-nodes")
def _cmd_multi_vs_target_case():
    from ..model.losses import cmd_loss_multi

    rng = np.random.default_rng(8)
    inputs = {
        "g0": np.tanh(rng.standard_normal((4, 3))) * 0.9,
        "g1": np.tanh(rng.standard_normal((3, 3))) * 0.9,
        "g2": np.tanh(rng.standard_normal((5, 3))) * 0.9,
    }

    def fn(g0, g1, g2):
        return cmd_loss_multi((g0, g1, g2), max_order=3)

    return fn, inputs
