"""Trace-once / replay-many compilation of the training step.

The autograd engine rebuilds an identical graph every training step:
Tensor wrappers, parent tuples, and backward closures are allocated and
garbage-collected thousands of times over a topology that never
changes.  This module removes that steady-state overhead:

1. **Trace** — run one eager step inside :func:`trace`.  Every op the
   engine constructs is appended to a :class:`~repro.nn._tracing.Tape`
   (op name, output tensor, parents, attrs) in construction order,
   which is a valid topological order of the forward graph.
2. **Compile** — :class:`CompiledStep` filters the tape to the
   ancestors of the requested outputs, adopts the traced tensors'
   ``.data`` arrays as its preallocated forward buffers, allocates a
   gradient buffer per node, and binds every recorded op's registry
   forward and backward (:mod:`repro.nn.ops`) to those buffers as two
   flat schedules of no-arg callables: the forward ops (writing into
   their ``out`` buffers) and the backward ops in **exactly the order
   the eager engine's DFS would process them**.
3. **Replay** — copy the per-step inputs into their fixed buffers, run
   the forward list, seed the root gradient, run the backward list,
   and hand the accumulated leaf gradients to the optimizer.  No
   Tensor graph and no closures built per step; each op keeps its
   scratch buffers in its own ``state`` dict, reused every replay.

Bit-for-bit equivalence with eager execution is a hard contract (it is
what keeps eager and compiled checkpoints interchangeable).  The op
arithmetic is identical by construction — both modes run the same
registry functions, eager with ``out=None``.  What the compiled step
itself must get right is the rest: the backward schedule replicates
``Tensor.backward``'s DFS ordering, gradient accumulation mirrors the
engine's first-contribution-assigns / later-contributions-add
semantics, and a view op skips its forward only while its buffer is a
live view of its input.  ``repro check`` audits that per op (see
``repro.check.gradcheck.check_compiled``).

**Buffer ownership.**  Forward buffers are the traced tensors' own
``.data`` arrays, so view relationships recorded during the trace
(reshape/transpose/basic slicing) stay live: writing a parent buffer
in place updates every aliased child for free, and such alias ops cost
nothing at replay.  Per-step inputs are *copied into* their fixed
buffers (never rebound), which is what keeps those views valid.
Parameters are read through their live ``Tensor.data`` arrays; a
replay verifies the arrays were not rebound and raises
:class:`ReplayMismatch` (a retrace trigger) otherwise.

**float32 mode.**  ``dtype="float32"`` re-allocates every buffer in
single precision, casts constants once at compile time and parameters
on every replay, and casts leaf gradients back to float64 for the
optimizer.  Alias ops degrade to copies (the float32 buffers no longer
share memory).  Loss values typically agree with float64 eager to
~1e-5 relative; see DESIGN.md §11 for measured tolerances.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _tracing
from ._tracing import Tape, TapeEntry
from .ops import OPS, Op
from .tensor import Tensor

__all__ = [
    "CompileError", "ReplayMismatch", "CompiledStep", "trace",
    "step_input", "step_index", "KERNELS", "COMPOSITE_OPS", "TraceOp",
    "tape_metadata",
]


class CompileError(RuntimeError):
    """The traced tape cannot be compiled (unregistered op, bad root...)."""


class ReplayMismatch(CompileError):
    """Replay-time state no longer matches the compiled program.

    Raised when a parameter array was rebound or an input's shape
    changed; callers should fall back to eager and retrace.
    """


# ----------------------------------------------------------------------
# Tracing front end
# ----------------------------------------------------------------------
@contextmanager
def trace():
    """Record every op built inside the block onto a fresh tape."""
    tape = Tape()
    _tracing.push_tape(tape)
    try:
        yield tape
    finally:
        _tracing.pop_tape()


def step_input(name: str, array: np.ndarray) -> Tensor:
    """Wrap a per-step input array as a leaf tensor, named for replay.

    During a trace the tensor is registered on the tape under ``name``;
    replays copy the step's fresh value into the (fixed) buffer.
    Outside a trace this is just ``Tensor(array)``.
    """
    tensor = Tensor(np.asarray(array, dtype=np.float64))
    tape = _tracing.current_tape()
    if tape is not None:
        if name in tape.inputs:
            raise CompileError(f"duplicate step input {name!r}")
        tape.inputs[name] = tensor
    return tensor


def step_index(name: str, index: np.ndarray) -> np.ndarray:
    """Register a per-step integer index array (op attr, not a tensor).

    Ops that consume the *returned* array as an attr (``gather_rows``)
    get a dynamic index buffer in the compiled program, refreshed from
    the replay inputs under ``name``.
    """
    idx = np.asarray(index, dtype=np.int64)
    tape = _tracing.current_tape()
    if tape is not None:
        if name in tape.input_arrays or name in tape.inputs:
            raise CompileError(f"duplicate step input {name!r}")
        tape.index_names[id(idx)] = name
        tape.input_arrays[name] = idx
    return idx


# ----------------------------------------------------------------------
# Op table
# ----------------------------------------------------------------------
#: op name -> :class:`repro.nn.ops.Op`.  The compiled step runs the op
#: registry itself: the same forward/backward functions eager runs.
KERNELS: Dict[str, Op] = OPS
#: Public ``repro.nn.functional`` ops that trace *through* primitives.
COMPOSITE_OPS = frozenset({
    "mse_loss", "global_avg_pool2d",
    # K-node alignment losses (repro.model.losses): pure compositions
    # of primitives, traced through like any other expression.
    "node_contrastive_loss_multi", "cmd_loss_multi",
})


# ----------------------------------------------------------------------
# Trace metadata (consumed by the static tensor-contract checker)
# ----------------------------------------------------------------------
class TraceOp:
    """Shape/dtype metadata of one recorded op, detached from buffers.

    The static contract checker (:mod:`repro.check.contracts`)
    abstractly interprets a tape through these records — no replay, no
    gradient step — so the record carries everything a shape/dtype
    contract can talk about and nothing that keeps tensors alive.
    ``aliases[i]`` is True when the recorded output buffer shares
    memory with input ``i`` (views are expected to alias; anything
    else doing so is a hazard the checker flags).
    """

    __slots__ = ("op", "out_shape", "out_dtype", "in_shapes", "in_dtypes",
                 "attrs", "aliases", "index")

    def __init__(self, op: str, out_shape, out_dtype, in_shapes,
                 in_dtypes, attrs, aliases, index: int) -> None:
        self.op = op
        self.out_shape = tuple(out_shape)
        self.out_dtype = np.dtype(out_dtype)
        self.in_shapes = tuple(tuple(s) for s in in_shapes)
        self.in_dtypes = tuple(np.dtype(d) for d in in_dtypes)
        self.attrs = attrs
        self.aliases = tuple(aliases)
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceOp({self.op!r}, out={self.out_shape}"
                f":{self.out_dtype}, ins={len(self.in_shapes)})")


#: Raised by np.shares_memory when the exact overlap problem exceeds
#: max_work; spelled np.TooHardError on older numpy.
_TooHardError = getattr(getattr(np, "exceptions", np), "TooHardError",
                        ValueError)


def _shares(out: np.ndarray, parent: np.ndarray) -> bool:
    try:
        return bool(np.shares_memory(out, parent, max_work=10_000))
    except _TooHardError:  # pragma: no cover - exact check too expensive
        return bool(np.may_share_memory(out, parent))


def tape_metadata(tape: Tape) -> List["TraceOp"]:
    """Per-op shape/dtype records for a recorded tape.

    This is the read-only export surface the whole-program checker
    consumes: each entry's output/input shapes, dtypes, op attrs, and
    whether the output buffer aliases an input buffer.
    """
    records: List[TraceOp] = []
    for index, entry in enumerate(tape.entries):
        if entry.op is None:
            continue
        out = entry.out.data
        parents = [p.data for p in entry.parents]
        records.append(TraceOp(
            op=entry.op,
            out_shape=out.shape,
            out_dtype=out.dtype,
            in_shapes=[p.shape for p in parents],
            in_dtypes=[p.dtype for p in parents],
            attrs=dict(entry.attrs),
            aliases=[_shares(out, p) for p in parents],
            index=index,
        ))
    return records


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
class _GradSlot:
    __slots__ = ("buf", "gen")

    def __init__(self, buf: np.ndarray) -> None:
        self.buf = buf
        self.gen = -1


class CompiledStep:
    """A traced step compiled to flat forward/backward numpy schedules.

    Parameters
    ----------
    tape:
        The tape recorded by :func:`trace` around one eager step.
    root:
        The scalar loss tensor whose backward the program replays.
    outputs:
        ``name -> Tensor`` values to read back after each replay.
    dtype:
        ``"float64"`` (bit-exact vs eager) or ``"float32"``.
    """

    def __init__(self, tape: Tape, root: Tensor,
                 outputs: Optional[Dict[str, Tensor]] = None,
                 dtype: str = "float64") -> None:
        if root.data.size != 1:
            raise CompileError("root of a compiled step must be a scalar")
        if not root.requires_grad:
            raise CompileError("root of a compiled step requires no grad")
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise CompileError(f"unsupported compile dtype {dtype!r}")
        f64 = self.dtype == np.dtype(np.float64)
        outputs = dict(outputs or {})

        entry_of: Dict[int, TapeEntry] = {id(e.out): e for e in tape.entries}
        if id(root) not in entry_of:
            raise CompileError("root tensor was not produced by the trace")

        # -- ancestor filter -------------------------------------------
        needed: set = set()
        leaves: Dict[int, Tensor] = {}
        pending: List[Tensor] = [root] + list(outputs.values())
        while pending:
            t = pending.pop()
            key = id(t)
            if key in needed or key in leaves:
                continue
            entry = entry_of.get(key)
            if entry is None:
                leaves[key] = t
            else:
                needed.add(key)
                pending.extend(entry.parents)
        schedule = [e for e in tape.entries if id(e.out) in needed]
        for entry in schedule:
            if entry.op not in KERNELS:
                raise CompileError(
                    f"op {entry.op!r} is not a registry op; register it "
                    "in repro.nn.ops.OPS or classify it")

        # -- forward buffers -------------------------------------------
        self._buf: Dict[int, np.ndarray] = {}
        for key, t in leaves.items():
            self._buf[key] = t.data if f64 else t.data.astype(self.dtype)
        for entry in schedule:
            data = entry.out.data
            self._buf[id(entry.out)] = data if f64 \
                else np.empty(data.shape, dtype=self.dtype)

        # -- per-step input bindings -----------------------------------
        self._bindings: List[Tuple[str, np.ndarray]] = []
        bound = set()
        for name, t in tape.inputs.items():
            buf = self._buf.get(id(t))
            if buf is not None:
                self._bindings.append((name, buf))
                bound.add(id(t))
        # Dynamic integer index attrs get fixed buffers of their own.
        self._index_buffers: Dict[str, np.ndarray] = {}
        for name, arr in tape.input_arrays.items():
            self._index_buffers[name] = arr.copy()
        self.input_names = ({name for name, _ in self._bindings}
                            | set(self._index_buffers))

        # -- leaf bookkeeping ------------------------------------------
        #: float64: parameter arrays must still be the compiled buffers.
        self._leaf_guards: List[Tuple[Tensor, np.ndarray]] = []
        #: float32: leaves re-cast from the live tensors every replay.
        self._leaf_syncs: List[Tuple[Tensor, np.ndarray]] = []
        for key, t in leaves.items():
            if key in bound:
                continue
            if f64:
                if t.requires_grad:
                    self._leaf_guards.append((t, self._buf[key]))
            else:
                self._leaf_syncs.append((t, self._buf[key]))

        # -- backward order: replicate Tensor.backward's DFS -----------
        order: List[Tensor] = []
        seen: set = set()
        dfs: List[Tuple[Tensor, bool]] = [(root, False)]
        while dfs:
            node, processed = dfs.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            dfs.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    dfs.append((parent, False))

        self._gen = [0]
        self._grad: Dict[int, _GradSlot] = {}
        for node in order:
            buf = self._buf[id(node)]
            gbuf = np.empty(buf.shape, dtype=self.dtype)
            self._grad[id(node)] = _GradSlot(gbuf)
        self._root_slot = self._grad[id(root)]

        self._param_grads: List[Tuple[Tensor, _GradSlot]] = [
            (leaves[id(node)], self._grad[id(node)])
            for node in order
            if id(node) in leaves and node.requires_grad
        ]

        # -- bind the registry ops to the buffers ----------------------
        acc_cache: Dict[int, Callable] = {}

        def acc_of(tensor: Tensor) -> Optional[Callable]:
            slot = self._grad.get(id(tensor))
            if slot is None or not tensor.requires_grad:
                return None
            acc = acc_cache.get(id(tensor))
            if acc is None:
                acc = self._make_acc(slot)
                acc_cache[id(tensor)] = acc
            return acc

        def resolve_attrs(entry: TapeEntry) -> Dict[str, Any]:
            attrs = dict(entry.attrs)
            for key, value in attrs.items():
                if isinstance(value, np.ndarray):
                    name = tape.index_names.get(id(value))
                    if name is not None:
                        attrs[key] = self._index_buffers[name]
            return attrs

        # One state dict per op, shared by its forward and backward and
        # kept across replays, so scratch buffers are allocated once.
        bound: Dict[int, tuple] = {}
        self._fwd: List[Tuple[str, Callable]] = []
        for entry in schedule:
            op = KERNELS[entry.op]
            ins = [self._buf[id(p)] for p in entry.parents]
            out = self._buf[id(entry.out)]
            attrs, state = resolve_attrs(entry), {}
            bound[id(entry.out)] = (op, ins, out, attrs, state)
            # A view op whose traced buffer already is a live view of
            # its input costs nothing at replay.
            if f64 and op.alias and np.shares_memory(out, ins[0]):
                continue
            self._fwd.append((entry.op, functools.partial(
                op.forward, ins, attrs, out, state)))

        self._bwd: List[Tuple[str, Callable]] = []
        for node in reversed(order):
            entry = entry_of.get(id(node))
            if entry is None:
                continue   # leaf: accumulation happened at send time
            accs = [acc_of(p) for p in entry.parents]
            self._bwd.append((entry.op, self._backward_step(
                self._grad[id(node)], accs, *bound[id(node)])))

        self._outputs: Dict[str, np.ndarray] = {
            name: self._buf[id(t)] for name, t in outputs.items()
        }
        #: op name -> {"calls", "seconds"}; filled by profiled replays.
        self.op_profile: Dict[str, Dict[str, float]] = {}
        self.num_ops = len(self._fwd) + len(self._bwd)
        self.replays = 0

    # ------------------------------------------------------------------
    def _make_acc(self, slot: _GradSlot) -> Callable[[np.ndarray], None]:
        """First contribution assigns, later contributions add.

        This mirrors the engine's ``grads[key] = grad`` / ``grads[key]
        = grads[key] + grad`` dict semantics (and, for leaves, the
        zero-init-then-add of ``Tensor._accumulate``) bit for bit.
        """
        gen = self._gen

        def acc(g: np.ndarray) -> None:
            if slot.gen != gen[0]:
                slot.gen = gen[0]
                np.copyto(slot.buf, g)
            else:
                slot.buf += g
        return acc

    def _backward_step(self, slot: _GradSlot, accs: List[Optional[Callable]],
                       op: Op, ins: List[np.ndarray], out: np.ndarray,
                       attrs: Dict[str, Any], state: dict) -> Callable:
        """One op's backward, skipped when its output got no gradient."""
        gen = self._gen
        need = [acc is not None for acc in accs]

        def run() -> None:
            if slot.gen != gen[0]:
                return
            grads = op.backward(slot.buf, ins, out, attrs, need, state)
            for acc, grad in zip(accs, grads):
                if acc is not None:
                    acc(grad)
        return run

    # ------------------------------------------------------------------
    def bind_check(self, inputs: Dict[str, np.ndarray]) -> None:
        missing = sorted(self.input_names - set(inputs))
        if missing:
            raise ReplayMismatch(
                f"replay inputs missing {missing} "
                f"(expected {sorted(self.input_names)})")

    def replay(self, inputs: Optional[Dict[str, np.ndarray]] = None,
               profile: bool = False) -> Dict[str, np.ndarray]:
        """Run one compiled step; returns copies of the output buffers.

        After ``replay`` each traced parameter's ``.grad`` is set to
        the program's accumulated gradient buffer (cast to float64 in
        float32 mode), ready for ``clip_grad_norm`` / optimizer use.
        """
        inputs = inputs or {}
        self.bind_check(inputs)
        for tensor, buf in self._leaf_guards:
            if tensor.data is not buf:
                raise ReplayMismatch(
                    "a traced parameter's array was rebound; retrace")
        for tensor, buf in self._leaf_syncs:
            np.copyto(buf, tensor.data, casting="same_kind")
        for name, buf in self._bindings:
            value = np.asarray(inputs[name])
            if value.shape != buf.shape:
                raise ReplayMismatch(
                    f"input {name!r} has shape {value.shape}, compiled "
                    f"for {buf.shape}; retrace")
            np.copyto(buf, value, casting="same_kind")
        for name, buf in self._index_buffers.items():
            value = np.asarray(inputs[name])
            if value.shape != buf.shape:
                raise ReplayMismatch(
                    f"index input {name!r} has shape {value.shape}, "
                    f"compiled for {buf.shape}; retrace")
            np.copyto(buf, value, casting="same_kind")

        if profile:
            self._run_profiled(self._fwd, "fwd")
        else:
            for _, fn in self._fwd:
                fn()

        self._gen[0] += 1
        self._root_slot.gen = self._gen[0]
        self._root_slot.buf.fill(1.0)
        if profile:
            self._run_profiled(self._bwd, "bwd")
        else:
            for _, fn in self._bwd:
                fn()

        for tensor, slot in self._param_grads:
            if slot.gen != self._gen[0]:
                continue
            tensor.grad = slot.buf if self.dtype == np.float64 \
                else slot.buf.astype(np.float64)
        self.replays += 1
        return {name: np.array(buf, copy=True)
                for name, buf in self._outputs.items()}

    def _run_profiled(self, schedule: Sequence[Tuple[str, Callable]],
                      phase: str) -> None:
        from ..util import timing
        for op, fn in schedule:
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            name = f"{phase}.{op}"
            entry = self.op_profile.get(name)
            if entry is None:
                entry = self.op_profile[name] = \
                    {"calls": 0, "seconds": 0.0}
            entry["calls"] += 1
            entry["seconds"] += elapsed
            timing.record(f"op.{name}", elapsed)
