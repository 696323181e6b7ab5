"""Autograd contract auditor for the numpy engine.

Generalises the one-off finite-difference harness in
``tests/nn/test_tensor.py`` into a registry-driven audit:

- every public op of :mod:`repro.nn.functional` must have at least one
  registered :class:`OpCase` (coverage is itself audited, so a new op
  that forgets to enroll fails ``repro check``);
- the fused levelised-sweep autograd node of :mod:`repro.model.gnn` is
  enrolled explicitly (it is the one hand-written kernel outside
  ``functional``);
- each case is checked for (1) analytic-vs-central-difference gradient
  agreement on **every** differentiable input, (2) NaN/inf-free
  forward values and gradients, and (3) dtype stability — the engine
  is float64 end to end, so any float32 (or other) drift in outputs or
  gradients is a silent-precision bug;
- each case is additionally run under :func:`repro.nn.no_grad`
  (:func:`check_no_grad`): the output must carry no parents and no
  backward closure — anything else is a graph leak on the serving
  path — and its values must be bit-identical to the grad-enabled
  forward, which is the contract that licenses inference-only fast
  paths such as the slice-maximum pooling kernel.

Cases must be deterministic: anything stochastic (dropout) recreates
its own seeded Generator on every call so the finite-difference
re-evaluations see the same noise.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..nn import Tensor, no_grad
from ..nn import functional as F
from .rules import Finding

#: Ops audited in addition to the ``repro.nn.functional`` surface.
REQUIRED_EXTRA_OPS: Tuple[str, ...] = (
    "levelized_sweep", "node_contrastive_loss_multi", "cmd_loss_multi")

Builder = Callable[[], Tuple[Callable[..., Tensor], Dict[str, np.ndarray]]]


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


def check_no_grad(op_case: OpCase) -> List[str]:
    """Audit one case's inference contract under :func:`no_grad`.

    With gradients disabled the op must build no graph — no parent
    references, no backward closure, ``requires_grad`` off — or every
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


def check_compiled(op_case: OpCase) -> List[str]:
    """Audit one case's trace/compile/replay contract.

    The compiled execution engine (:mod:`repro.nn.compile`) promises
    **bit-for-bit** equivalence with eager execution in float64: every
    case is traced, compiled, and replayed twice — once on the traced
    values and once after mutating every input in place (the way the
    optimizer mutates parameters between steps) — and both the forward
    values and every input gradient must equal the eager run exactly.
    Cases whose op legitimately poisons the tape (stochastic ops such
    as dropout) are skipped; any other compile failure is a finding.
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
        if tape.poison_reason is not None:
            return []  # legitimately untraceable (e.g. dropout)
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


def audit_coverage() -> List[Finding]:
    """Every discovered op (plus the required extras) needs a case."""
    covered = {c.op for c in CASES}
    findings = []
    for name in list(functional_ops()) + list(REQUIRED_EXTRA_OPS):
        if name not in covered:
            findings.append(Finding(
                "gradcheck-coverage", f"repro.nn.functional.{name}", 0,
                f"op '{name}' has no registered gradcheck case; add one "
                "with @repro.check.gradcheck.case",
            ))
    return findings


def audit_compile_coverage() -> List[Finding]:
    """Every op must be classified by the compiled execution engine.

    Each public :mod:`repro.nn.functional` op (plus the required
    extras) has to appear in exactly one of the compile layer's
    registries: ``PRIMITIVE_OPS`` (it has an ``out=``-capable compiled
    kernel), ``COMPOSITE_OPS`` (it traces through primitives), or
    ``UNTRACEABLE_OPS`` (it legitimately poisons a trace).  An op in
    none of them would silently drop every training step that uses it
    back to eager execution — this audit makes that a ``repro check``
    failure instead.
    """
    from ..nn import compile as nc

    classified = (nc.PRIMITIVE_OPS | nc.COMPOSITE_OPS
                  | nc.UNTRACEABLE_OPS)
    findings = []
    for name in list(functional_ops()) + list(REQUIRED_EXTRA_OPS):
        if name not in classified:
            findings.append(Finding(
                "compile-coverage", f"repro.nn.functional.{name}", 0,
                f"op '{name}' is not enrolled with the compiled "
                "execution engine: register an out= kernel in "
                "repro.nn.compile.KERNELS, or classify it in "
                "COMPOSITE_OPS / UNTRACEABLE_OPS",
            ))
    return findings


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
# Case registry: repro.nn.functional
# ----------------------------------------------------------------------
@case("log_softmax", "2d-axis-1")
def _log_softmax_case():
    rng = np.random.default_rng(10)
    return (lambda x: F.log_softmax(x, axis=-1),
            {"x": rng.standard_normal((3, 5))})


@case("softmax", "2d-axis-0")
def _softmax_case():
    rng = np.random.default_rng(11)
    return (lambda x: F.softmax(x, axis=0),
            {"x": rng.standard_normal((4, 3))})


@case("mse_loss", "vector")
def _mse_case():
    rng = np.random.default_rng(12)
    target = rng.standard_normal((6, 1))
    return (lambda prediction: F.mse_loss(prediction, Tensor(target)),
            {"prediction": rng.standard_normal((6, 1))})


@case("mae_loss", "vector-no-kink")
def _mae_case():
    rng = np.random.default_rng(13)
    target = np.zeros((5, 1))
    # Keep |prediction - target| well away from the |.|-kink at zero.
    prediction = rng.standard_normal((5, 1))
    prediction += np.where(prediction >= 0, 0.5, -0.5)
    return (lambda prediction: F.mae_loss(prediction, Tensor(target)),
            {"prediction": prediction})


@case("huber_loss", "straddles-delta")
def _huber_case():
    # Values on both sides of delta=1, none within 1e-3 of the switch.
    prediction = np.array([-2.2, -0.6, -0.15, 0.3, 0.7, 1.8])
    return (lambda prediction: F.huber_loss(prediction,
                                            Tensor(np.zeros(6)), delta=1.0),
            {"prediction": prediction})


@case("gaussian_nll", "joint-mu-logvar")
def _gaussian_nll_case():
    rng = np.random.default_rng(14)
    target = rng.standard_normal((4, 1))
    return (lambda prediction, log_var:
            F.gaussian_nll(prediction, Tensor(target), log_var),
            {"prediction": rng.standard_normal((4, 1)),
             "log_var": rng.standard_normal((4, 1)) * 0.5})


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
        cols = F._im2col(x.data, weight.shape[2:], 1, 1)
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


@case("dropout", "deterministic-mask")
def _dropout_case():
    rng = np.random.default_rng(22)
    # The mask Generator is recreated per call, so the same mask is
    # drawn during every finite-difference re-evaluation.
    return (lambda x: F.dropout(x, 0.4, np.random.default_rng(7)),
            {"x": rng.standard_normal((4, 6))})


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


@case("cmd_loss_multi", "pairwise-three-nodes")
def _cmd_multi_pairwise_case():
    from ..model.losses import cmd_loss_multi

    rng = np.random.default_rng(9)
    inputs = {
        "g0": np.tanh(rng.standard_normal((3, 4))) * 0.9,
        "g1": np.tanh(rng.standard_normal((4, 4))) * 0.9,
        "g2": np.tanh(rng.standard_normal((2, 4))) * 0.9,
    }

    def fn(g0, g1, g2):
        return cmd_loss_multi((g0, g1, g2), max_order=3,
                              mode="pairwise")

    return fn, inputs
