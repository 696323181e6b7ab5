"""A small reverse-mode automatic differentiation engine on numpy arrays.

This module is the substrate that replaces PyTorch in the reproduction.  It
implements a :class:`Tensor` type that records the operations applied to it
and can compute gradients of a scalar loss with respect to every tensor that
participated in the computation, via :meth:`Tensor.backward`.

The engine is deliberately small but complete enough for the paper's model:
broadcasting elementwise arithmetic, matrix multiplication, reductions,
shape manipulation, indexing/gather, concatenation, and the nonlinearities
used by the timing predictor (ReLU, tanh, sigmoid, exp, log, softplus).
The numpy forward and backward of every primitive live once, in
:mod:`repro.nn.ops`; the methods here are one-line :func:`apply` calls,
and the compiled step (:mod:`repro.nn.compile`) runs the same functions.

Example
-------
>>> import numpy as np
>>> from repro.nn import Tensor
>>> w = Tensor(np.ones((3, 2)), requires_grad=True)
>>> x = Tensor(np.arange(6.0).reshape(2, 3))
>>> loss = (x @ w).sum()
>>> loss.backward()
>>> w.grad.shape
(3, 2)
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import _tracing
from .grad_mode import is_grad_enabled
from .ops import OPS

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A numpy array with reverse-mode autograd support.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor's value.
        Stored as ``float64``.
    requires_grad:
        If True, gradients flowing through this tensor are accumulated in
        :attr:`grad` during :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents",
                 "name", "_pending_grads")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray, "Tensor"], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Optional[Callable[[np.ndarray, "Tensor"], None]]
              ) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        Inside a :func:`repro.nn.no_grad` scope the result is detached:
        no parents are recorded and no backward function is kept, so the
        forward graph is never materialised.  Every op funnels through
        here (via ``apply`` and ``_finish``), which is what makes the
        no-grad fast path engine-wide rather than per-op.
        """
        requires = is_grad_enabled() and \
            any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (the usual choice for a scalar loss).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        # Topologically order the graph so each node's output gradient is
        # complete before its backward function runs.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Leaf accumulation happens inside the backward functions,
            # which route every gradient through _send.
            node._receive_upstream(node_grad, grads)

    def _receive_upstream(self, node_grad: np.ndarray,
                          grads: dict[int, np.ndarray]) -> None:
        """Dispatch an upstream gradient to this node's backward function."""
        if self._backward is None:
            self._accumulate(node_grad)
            return
        # Backward functions push into `grads` via this node's _send.
        self._pending_grads = grads  # type: ignore[attr-defined]
        try:
            self._backward(node_grad, self)
        finally:
            del self._pending_grads  # type: ignore[attr-defined]

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route ``grad`` to ``parent`` during backward traversal."""
        if not parent.requires_grad:
            return
        if parent._backward is None and not parent._parents:
            parent._accumulate(grad)
            return
        grads = self._pending_grads  # type: ignore[attr-defined]
        key = id(parent)
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            grads[key] = grad

    # ------------------------------------------------------------------
    # Arithmetic (every primitive is one registry op: repro.nn.ops)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply("add", (self, as_tensor(other)))

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply("mul", (self, as_tensor(other)))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return apply("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply("truediv", (self, as_tensor(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return apply("pow", (self,), {"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return apply("matmul", (self, as_tensor(other)))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        return apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Biased variance along ``axis`` (differentiable)."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) * (self - mu)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return apply("max", (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply("reshape", (self,), {"shape": tuple(shape)})

    def transpose(self, *axes: int) -> "Tensor":
        return apply("transpose", (self,),
                     {"axes": tuple(axes) if axes else None})

    def __getitem__(self, index) -> "Tensor":
        return apply("getitem", (self,), {"index": index})

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        return apply("relu", (self,))

    def tanh(self) -> "Tensor":
        return apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return apply("sigmoid", (self,))

    def exp(self) -> "Tensor":
        return apply("exp", (self,))

    def log(self) -> "Tensor":
        return apply("log", (self,))

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        return apply("softplus", (self,))

    def abs(self) -> "Tensor":
        return apply("abs", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        return apply("clip", (self,), {"low": low, "high": high})

    def sqrt(self) -> "Tensor":
        return self ** 0.5


def apply(op: str, parents: Sequence[Tensor], attrs: Optional[dict] = None,
          state: Optional[dict] = None) -> Tensor:
    """Run the registry op ``op`` eagerly on ``parents``.

    The forward of :data:`repro.nn.ops.OPS` ``[op]`` computes the result
    into a fresh array; the node's backward runs the op's backward with
    the same ``attrs`` and ``state`` (a fresh dict unless the caller
    seeds it, as serving does with cached conv columns).
    """
    spec = OPS[op]
    parents = tuple(parents)
    attrs = {} if attrs is None else attrs
    state = {} if state is None else state
    ins = [p.data for p in parents]
    data = spec.forward(ins, attrs, None, state)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grads = spec.backward(grad, ins, out.data, attrs,
                              [p.requires_grad for p in parents], state)
        for parent, parent_grad in zip(parents, grads):
            if parent_grad is not None:
                out._send(parent, parent_grad)

    return _finish(data, parents, backward, op=op, attrs=attrs)


def _finish(data: np.ndarray, parents: Tuple[Tensor, ...],
            backward: Optional[Callable[[np.ndarray, Tensor], None]],
            op: Optional[str] = None, attrs: Optional[dict] = None) -> Tensor:
    """Build a graph node whose ``backward(grad, out)`` routes gradients.

    The node stores ``backward`` itself, never a closure over the node,
    so an eager graph holds no reference cycle: a discarded graph and
    its arrays are freed as soon as the last reference goes, without
    waiting for the cyclic garbage collector.  Under :func:`no_grad`
    the result requires no gradient and ``backward`` is dropped.

    ``op``/``attrs`` name the operation for the trace/compile layer
    (:mod:`repro.nn.compile`): while a trace is active every op is
    appended to the tape, including ones producing ``requires_grad=
    False`` results — their *values* still feed the forward replay.
    An op without a name poisons compilation (the tape records it and
    the compiler refuses), never silently miscomputes.
    """
    out = Tensor._make(np.asarray(data), parents, backward)
    if _tracing.ACTIVE:
        _tracing.emit(op, out, parents, attrs)
    return out


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    return apply("concatenate", tensors,
                 {"axis": axis, "sizes": tuple(t.shape[axis] for t in tensors)})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    return apply("stack", [as_tensor(t) for t in tensors], {"axis": axis})


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select (condition is not differentiated)."""
    return apply("where", (as_tensor(a), as_tensor(b)),
                 {"cond": np.asarray(condition, dtype=bool)})


def gather_rows(source: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``source[index]`` differentiably (index is integer array)."""
    return apply("gather_rows", (source,),
                 {"index": np.asarray(index, dtype=np.int64)})


def scatter_add_rows(values: Tensor, index: np.ndarray, num_rows: int) -> Tensor:
    """Sum ``values`` rows into ``num_rows`` buckets given by ``index``.

    The inverse of :func:`gather_rows`: ``out[i] = sum_j values[j]`` over all
    ``j`` with ``index[j] == i``.  Used for message aggregation in the GNN.
    """
    return apply("scatter_add_rows", (values,),
                 {"index": np.asarray(index, dtype=np.int64),
                  "num_rows": num_rows})


def no_grad_copy(tensor: Tensor) -> np.ndarray:
    """Return a detached copy of the tensor's data."""
    return tensor.data.copy()
