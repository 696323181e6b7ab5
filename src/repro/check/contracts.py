"""Static tensor-contract checker for recorded compile traces.

The compile layer replays a recorded tape bit-for-bit — which means
any structural defect in the trace (a dtype that silently narrowed, an
output shape that does not follow from its inputs, an output buffer
aliasing an input it should not) replays forever.  This module
abstractly interprets a tape through the shape/dtype records exported
by :func:`repro.nn.compile.tape_metadata` and fails on those defects
**without executing a training step**: no :class:`CompiledStep`, no
replay, no backward.

Three layers of checking per recorded op:

- **dtype discipline** (central): the engine contract is float64 end to
  end, so a floating output narrower than its widest floating input is
  a silent-precision bug;
- **aliasing discipline** (central): only the view ops (``Op.alias``
  in :data:`repro.nn.ops.OPS`: ``reshape``, ``transpose``,
  ``getitem``) may return a buffer sharing memory with an input —
  anywhere else, an op writing through that buffer on replay would
  corrupt its own operand;
- **shape contract** (per-op, registered in :data:`CONTRACTS`): the
  output shape must follow from the input shapes and attrs under the
  op's documented rule.  Coverage is audited: a registry op
  (``compile.KERNELS`` is the registry) with no contract here is
  itself a finding, so new ops cannot silently opt out.

``run_contract_checks`` drives the whole suite over every gradcheck
case: each case is traced (eager forward only) and its tape validated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.ops import OPS
from .rules import Finding

#: Ops whose output is *expected* to be a view of input 0.
VIEW_OPS = frozenset(name for name, op in OPS.items() if op.alias)

#: op name -> shape contract.  A contract receives a
#: :class:`repro.nn.compile.TraceOp` and returns an error message, or
#: None when the record satisfies the op's shape rule.
CONTRACTS: Dict[str, Callable[..., Optional[str]]] = {}


def contract(*ops: str):
    """Decorator registering one shape contract for the named ops."""

    def register(fn: Callable[..., Optional[str]]):
        for op in ops:
            if op in CONTRACTS:
                raise ValueError(f"duplicate contract for op {op!r}")
            CONTRACTS[op] = fn
        return fn

    return register


def _broadcast(shapes: Sequence[Tuple[int, ...]]) -> Optional[Tuple[int, ...]]:
    try:
        return tuple(np.broadcast_shapes(*shapes))
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Shape contracts
# ----------------------------------------------------------------------
@contract("add", "mul", "truediv")
def _c_elementwise(rec) -> Optional[str]:
    expected = _broadcast(rec.in_shapes)
    if expected is None:
        return (f"inputs {rec.in_shapes} do not broadcast (shape "
                "unification failed)")
    if rec.out_shape != expected:
        return (f"output shape {rec.out_shape} != broadcast of inputs "
                f"{expected}")
    return None


@contract("neg", "relu", "tanh", "sigmoid", "exp", "log", "softplus",
          "abs", "clip", "log_softmax", "pow")
def _c_unary(rec) -> Optional[str]:
    if rec.out_shape != rec.in_shapes[0]:
        return (f"elementwise op changed shape: {rec.in_shapes[0]} -> "
                f"{rec.out_shape}")
    return None


@contract("matmul")
def _c_matmul(rec) -> Optional[str]:
    a, b = rec.in_shapes
    if not a or not b:
        return f"matmul on 0-d operand: {a} @ {b}"
    a2 = (1,) + a if len(a) == 1 else a
    b2 = b + (1,) if len(b) == 1 else b
    if a2[-1] != b2[-2]:
        return (f"matmul inner dimensions disagree: {a} @ {b} "
                f"({a2[-1]} vs {b2[-2]})")
    batch = _broadcast([a2[:-2], b2[:-2]])
    if batch is None:
        return f"matmul batch dimensions do not broadcast: {a} @ {b}"
    expected = batch + (a2[-2], b2[-1])
    if len(a) == 1:
        expected = expected[:-2] + (expected[-1],)
    if len(b) == 1:
        expected = expected[:-1]
    if rec.out_shape != expected:
        return (f"matmul output shape {rec.out_shape} != {expected} "
                f"for {a} @ {b}")
    return None


@contract("sum", "max")
def _c_reduce(rec) -> Optional[str]:
    axis = rec.attrs.get("axis")
    keepdims = bool(rec.attrs.get("keepdims", False))
    shape = rec.in_shapes[0]
    if axis is None:
        axes = tuple(range(len(shape)))
    elif isinstance(axis, (tuple, list)):
        axes = tuple(a % len(shape) for a in axis)
    else:
        axes = (axis % len(shape),)
    if keepdims:
        expected = tuple(1 if i in axes else d
                         for i, d in enumerate(shape))
    else:
        expected = tuple(d for i, d in enumerate(shape)
                         if i not in axes)
    if rec.out_shape != expected:
        return (f"{rec.op}(axis={axis}, keepdims={keepdims}) on "
                f"{shape} should yield {expected}, recorded "
                f"{rec.out_shape}")
    return None


@contract("reshape")
def _c_reshape(rec) -> Optional[str]:
    if int(np.prod(rec.in_shapes[0], dtype=np.int64)) != \
            int(np.prod(rec.out_shape, dtype=np.int64)):
        return (f"reshape changes element count: {rec.in_shapes[0]} -> "
                f"{rec.out_shape}")
    return None


@contract("transpose")
def _c_transpose(rec) -> Optional[str]:
    shape = rec.in_shapes[0]
    axes = rec.attrs.get("axes")
    if axes is None:
        expected = tuple(reversed(shape))
    else:
        if sorted(a % len(shape) for a in axes) != list(range(len(shape))):
            return f"transpose axes {axes} are not a permutation"
        expected = tuple(shape[a] for a in axes)
    if rec.out_shape != expected:
        return (f"transpose({axes}) on {shape} should yield "
                f"{expected}, recorded {rec.out_shape}")
    return None


@contract("getitem")
def _c_getitem(rec) -> Optional[str]:
    # The recorded index can be any numpy fancy-indexing object; the
    # output shape is not reconstructed here.  The central dtype and
    # aliasing checks still apply.
    return None


@contract("concatenate")
def _c_concatenate(rec) -> Optional[str]:
    axis = rec.attrs.get("axis", 0)
    shapes = rec.in_shapes
    ndim = len(shapes[0])
    axis = axis % ndim
    for shape in shapes[1:]:
        if len(shape) != ndim:
            return f"concatenate rank mismatch: {shapes}"
        if any(shape[i] != shapes[0][i]
               for i in range(ndim) if i != axis):
            return (f"concatenate off-axis dimensions disagree: "
                    f"{shapes} along axis {axis}")
    total = sum(shape[axis] for shape in shapes)
    expected = shapes[0][:axis] + (total,) + shapes[0][axis + 1:]
    if rec.out_shape != expected:
        return (f"concatenate along axis {axis} of {shapes} should "
                f"yield {expected}, recorded {rec.out_shape}")
    return None


@contract("stack")
def _c_stack(rec) -> Optional[str]:
    axis = rec.attrs.get("axis", 0)
    shapes = rec.in_shapes
    if any(shape != shapes[0] for shape in shapes[1:]):
        return f"stack inputs disagree in shape: {shapes}"
    axis = axis % (len(shapes[0]) + 1)
    expected = shapes[0][:axis] + (len(shapes),) + shapes[0][axis:]
    if rec.out_shape != expected:
        return (f"stack of {len(shapes)} x {shapes[0]} along axis "
                f"{axis} should yield {expected}, recorded "
                f"{rec.out_shape}")
    return None


@contract("where")
def _c_where(rec) -> Optional[str]:
    shapes = list(rec.in_shapes)
    cond = rec.attrs.get("cond")
    if cond is not None and hasattr(cond, "shape"):
        shapes.append(tuple(cond.shape))
    expected = _broadcast(shapes)
    if expected is None:
        return f"where operands do not broadcast: {shapes}"
    if rec.out_shape != expected:
        return (f"where output shape {rec.out_shape} != broadcast "
                f"{expected}")
    return None


@contract("gather_rows")
def _c_gather_rows(rec) -> Optional[str]:
    index = rec.attrs.get("index")
    if index is None or not hasattr(index, "shape"):
        return "gather_rows record carries no index attr"
    expected = tuple(index.shape) + rec.in_shapes[0][1:]
    if rec.out_shape != expected:
        return (f"gather_rows of {len(index)} rows from "
                f"{rec.in_shapes[0]} should yield {expected}, recorded "
                f"{rec.out_shape}")
    return None


@contract("scatter_add_rows")
def _c_scatter_add_rows(rec) -> Optional[str]:
    num_rows = rec.attrs.get("num_rows")
    if num_rows is None:
        return "scatter_add_rows record carries no num_rows attr"
    expected = (int(num_rows),) + rec.in_shapes[0][1:]
    if rec.out_shape != expected:
        return (f"scatter_add_rows into {num_rows} rows from "
                f"{rec.in_shapes[0]} should yield {expected}, recorded "
                f"{rec.out_shape}")
    return None


def _pool_hw(h: int, w: int, kernel: int, stride: int) -> Tuple[int, int]:
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


@contract("conv2d")
def _c_conv2d(rec) -> Optional[str]:
    x, weight = rec.in_shapes[0], rec.in_shapes[1]
    if len(x) != 4 or len(weight) != 4:
        return f"conv2d expects NCHW x and OIKK weight, got {x}, {weight}"
    n, c_in, h, w = x
    c_out, c_in_w, kh, kw = weight
    if c_in != c_in_w:
        return (f"conv2d channel mismatch: input has {c_in}, weight "
                f"expects {c_in_w}")
    stride = int(rec.attrs.get("stride", 1))
    padding = int(rec.attrs.get("padding", 0))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    expected = (n, c_out, oh, ow)
    if rec.out_shape != expected:
        return (f"conv2d on {x} with weight {weight} (stride={stride}, "
                f"padding={padding}) should yield {expected}, recorded "
                f"{rec.out_shape}")
    return None


@contract("max_pool2d", "avg_pool2d")
def _c_pool2d(rec) -> Optional[str]:
    x = rec.in_shapes[0]
    if len(x) != 4:
        return f"{rec.op} expects NCHW input, got {x}"
    kernel = int(rec.attrs.get("kernel", 2))
    stride = int(rec.attrs.get("stride") or kernel)
    oh, ow = _pool_hw(x[2], x[3], kernel, stride)
    expected = (x[0], x[1], oh, ow)
    if rec.out_shape != expected:
        return (f"{rec.op}(kernel={kernel}, stride={stride}) on {x} "
                f"should yield {expected}, recorded {rec.out_shape}")
    return None


@contract("levelized_sweep")
def _c_levelized_sweep(rec) -> Optional[str]:
    s, w_net, w_cell = rec.in_shapes
    if len(s) != 2 or len(w_net) != 2 or len(w_cell) != 2:
        return (f"levelized_sweep expects 2-d state and weights, got "
                f"{rec.in_shapes}")
    hidden = s[1]
    if w_net != (hidden, hidden) or w_cell != (hidden, hidden):
        return (f"levelized_sweep weights must be ({hidden}, {hidden}) "
                f"to match state {s}; got {w_net} and {w_cell}")
    num_nodes = rec.attrs.get("num_nodes")
    expected = (int(num_nodes), hidden) if num_nodes is not None else s
    if rec.out_shape != expected:
        return (f"levelized_sweep on state {s} should yield {expected}, "
                f"recorded {rec.out_shape}")
    return None


# ----------------------------------------------------------------------
# Central checks + driver
# ----------------------------------------------------------------------
def check_records(records, label: str) -> List[Finding]:
    """Validate one tape's metadata records; empty list = clean."""
    findings: List[Finding] = []

    def report(rec, message: str) -> None:
        findings.append(Finding(
            "tensor-contract", label, rec.index,
            f"op {rec.index} ({rec.op}): {message}"))

    for rec in records:
        if rec.op not in OPS:
            report(rec, "op has no registered compile kernel; the tape "
                        "cannot compile")
            continue
        # Dtype discipline: a floating output narrower than its widest
        # floating input silently loses precision on every replay.
        float_ins = [d for d in rec.in_dtypes
                     if np.issubdtype(d, np.floating)]
        if float_ins and np.issubdtype(rec.out_dtype, np.floating):
            widest = max(d.itemsize for d in float_ins)
            if rec.out_dtype.itemsize < widest:
                report(rec, f"dtype narrowed: inputs "
                            f"{[str(d) for d in rec.in_dtypes]} -> "
                            f"output {rec.out_dtype}")
        # Aliasing discipline: only view ops may return a buffer that
        # shares memory with an input.
        if rec.op not in VIEW_OPS and any(rec.aliases):
            shared = [i for i, a in enumerate(rec.aliases) if a]
            report(rec, f"output buffer aliases input(s) {shared} but "
                        f"{rec.op} is not a view op; replay would "
                        "overwrite its own operand")
        checker = CONTRACTS.get(rec.op)
        if checker is not None:
            problem = checker(rec)
            if problem is not None:
                report(rec, problem)
    return findings


def audit_contract_coverage() -> List[Finding]:
    """Every registry op needs a shape/dtype contract."""
    findings: List[Finding] = []
    for op in sorted(OPS):
        if op not in CONTRACTS:
            findings.append(Finding(
                "contract-coverage", f"repro.nn.ops.{op}", 0,
                f"registry op '{op}' has no shape/dtype contract; "
                "register one with @repro.check.contracts.contract",
            ))
    return findings


def check_case_trace(op_case) -> List[Finding]:
    """Trace one gradcheck case (eager forward only) and validate it."""
    from ..nn import Tensor
    from ..nn import compile as nc

    fn, inputs = op_case.build()
    tensors = {name: Tensor(np.asarray(value, dtype=np.float64).copy(),
                            requires_grad=True)
               for name, value in inputs.items()}
    label = f"{op_case.op}:{op_case.label}"
    with nc.trace() as tape:
        out = fn(**tensors)
        if not isinstance(out, Tensor):
            return []   # gradcheck already reports the wrong return type
        coeff = (np.arange(out.data.size, dtype=np.float64)
                 .reshape(out.data.shape) * 0.17 + 0.3)
        (out * Tensor(coeff)).sum()
    return check_records(nc.tape_metadata(tape), label)


def run_contract_checks() -> List[Finding]:
    """Coverage audit + trace validation of every gradcheck case."""
    from .gradcheck import CASES

    findings = audit_contract_coverage()
    for op_case in CASES:
        findings.extend(check_case_trace(op_case))
    return findings
