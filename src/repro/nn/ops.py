"""The autograd engine's primitive ops: one numpy definition each.

Every primitive is registered once, in :data:`OPS`, as an :class:`Op`
holding two plain numpy functions:

- ``forward(ins, attrs, out, state)`` computes the result from the
  input arrays ``ins`` and the op's ``attrs``.  With ``out=None`` it
  returns a fresh array; otherwise it writes into the preallocated
  ``out`` buffer (and returns it).
- ``backward(g, ins, out, attrs, need, state)`` returns one gradient per
  input, given the upstream gradient ``g`` and the forward result
  ``out``.  An entry may be ``None`` where ``need[i]`` is false (the
  caller ignores gradients of inputs that require none).

``state`` is a dict the forward and backward of one node share: both
keep scratch buffers in it, and a caller may seed it with inputs the
op would otherwise recompute (serving's cached conv columns).  No
forward leaves whole-batch intermediates there for its backward:
``conv2d`` unfolds its columns a chunk of samples at a time and the
backward unfolds them again.  Inside a training step
(:func:`repro.util.training_step`) ``conv2d`` and ``max_pool2d`` split
their samples into contiguous parts that run on the kernel workers,
each writing its own rows; the bits are those of the serial call.
Both execution modes run these same functions, so they compute the
same numbers by construction:

- **eager** — :func:`repro.nn.tensor.apply` runs ``forward`` with
  ``out=None`` and a fresh ``state``, and the node's backward closure
  runs ``backward`` with that state;
- **compiled** — :class:`repro.nn.compile.CompiledStep` binds both to
  its fixed buffers and keeps one ``state`` per op, so scratch arrays
  are allocated on the first replay and reused on every later one.

``Op.alias`` marks the view ops: their eager result may share memory
with input 0, and a float64 compiled replay skips their forward when
the traced buffer already is that live view.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..util.threads import run_parts, step_workers

__all__ = ["Op", "OPS", "im2col"]


@dataclass(frozen=True)
class Op:
    """One primitive: its forward, its backward, and whether it views."""

    forward: Callable
    backward: Callable
    alias: bool = False


#: op name -> :class:`Op`; the one table both execution modes run.
OPS: Dict[str, Op] = {}


def defop(name: str, forward: Callable, backward: Callable,
          alias: bool = False) -> None:
    """Register the primitive ``name``."""
    OPS[name] = Op(forward, backward, alias)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    Numpy broadcasting implicitly expands operands; the corresponding
    gradient operation is a sum over the broadcast axes.  This helper
    undoes broadcasting by summing over the leading added axes and over
    any axis that was expanded from size 1.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _into(out: Optional[np.ndarray], value) -> np.ndarray:
    """``value`` itself (eager), or copied into the buffer ``out``."""
    if out is None:
        return value
    out[...] = value
    return out


def _scratch(state: dict, key: str, shape: Tuple[int, ...], dtype,
             zero: bool = False) -> np.ndarray:
    """The buffer ``state[key]``, allocated on first use (zeroed if asked)."""
    buf = state.get(key)
    if buf is None:
        buf = state[key] = (np.zeros if zero else np.empty)(shape, dtype)
    elif zero:
        buf.fill(0.0)
    return buf


def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int,
           padding: int, state: Optional[dict] = None) -> np.ndarray:
    """Unfold NCHW ``x`` into C-contiguous ``(n, c, kh, kw, oh, ow)`` columns.

    One ``np.copyto`` of the strided patch view; reshaped to ``(n,
    c*kh*kw, oh*ow)`` the result is the GEMM operand of ``conv2d`` at
    no cost.  With ``state`` the padded staging buffer (borders zeroed
    once) and the column buffer are kept there and reused by later
    calls of the same shape or of fewer samples, which use their
    leading rows.
    """
    state = {} if state is None else state
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding:
        xpad = state.get("xpad")
        if xpad is None:
            xpad = state["xpad"] = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
        xpad = xpad[:n]
        xpad[:, :, padding:padding + h, padding:padding + w] = x
        x = xpad
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride))
    cols = _scratch(state, "cols", patches.shape, x.dtype)[:n]
    np.copyto(cols, patches)
    return cols


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------
def _add(ins, attrs, out, state):
    return np.add(ins[0], ins[1], out=out)


def _add_grad(g, ins, out, attrs, need, state):
    a, b = ins
    return (_unbroadcast(g, a.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None)


def _mul(ins, attrs, out, state):
    return np.multiply(ins[0], ins[1], out=out)


def _mul_grad(g, ins, out, attrs, need, state):
    a, b = ins
    return (_unbroadcast(g * b, a.shape) if need[0] else None,
            _unbroadcast(g * a, b.shape) if need[1] else None)


def _neg(ins, attrs, out, state):
    return np.negative(ins[0], out=out)


def _neg_grad(g, ins, out, attrs, need, state):
    return (-g,)


def _truediv(ins, attrs, out, state):
    return np.divide(ins[0], ins[1], out=out)


def _truediv_grad(g, ins, out, attrs, need, state):
    a, b = ins
    return (_unbroadcast(g / b, a.shape) if need[0] else None,
            _unbroadcast(-g * a / (b ** 2), b.shape) if need[1] else None)


def _pow(ins, attrs, out, state):
    # ``a ** e``, not np.power(a, e, out=...): ndarray.__pow__ has fast
    # paths (e == 2, 0.5, ...) the ufunc call skips.
    return _into(out, ins[0] ** attrs["exponent"])


def _pow_grad(g, ins, out, attrs, need, state):
    exponent = attrs["exponent"]
    return (g * exponent * ins[0] ** (exponent - 1),)


def _matmul(ins, attrs, out, state):
    a, b = ins
    if a.ndim >= 2 and b.ndim >= 2:
        return np.matmul(a, b, out=out)
    return _into(out, a @ b)


def _matmul_grad(g, ins, out, attrs, need, state):
    a, b = ins
    g_a = g_b = None
    if need[0]:
        if b.ndim == 1:
            g_a = np.outer(g, b) if g.ndim == 1 else g[..., None] * b
        elif a.ndim == 1 and b.ndim > 2:
            # vector @ batched: g is (..., m), one row vector per batch.
            g_a = (g[..., None, :] @ np.swapaxes(b, -1, -2))[..., 0, :]
        else:
            g_a = g @ np.swapaxes(b, -1, -2)
        g_a = _unbroadcast(np.asarray(g_a), a.shape)
    if need[1]:
        if a.ndim == 1 and g.ndim == 0:
            g_b = g * a     # vector @ vector: a dot product
        elif a.ndim == 1:
            g_b = np.outer(a, g) if g.ndim == 1 \
                else a[..., None] @ g[..., None, :]
        elif b.ndim == 1 and a.ndim > 2:
            # batched @ vector: g is (..., n), one column per batch.
            g_b = (np.swapaxes(a, -1, -2) @ g[..., None])[..., 0]
        else:
            g_b = np.swapaxes(a, -1, -2) @ g
        g_b = _unbroadcast(np.asarray(g_b), b.shape)
    return g_a, g_b


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _sum(ins, attrs, out, state):
    return ins[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"],
                      out=out)


def _sum_grad(g, ins, out, attrs, need, state):
    axis = attrs["axis"]
    if axis is not None and not attrs["keepdims"]:
        g = np.expand_dims(g, axis=axis)
    return (np.broadcast_to(g, ins[0].shape).copy(),)


def _max(ins, attrs, out, state):
    return ins[0].max(axis=attrs["axis"], keepdims=attrs["keepdims"],
                      out=out)


def _max_grad(g, ins, out, attrs, need, state):
    a = ins[0]
    axis = attrs["axis"]
    expanded = out
    if axis is not None and not attrs["keepdims"]:
        g = np.expand_dims(g, axis=axis)
        expanded = np.expand_dims(out, axis=axis)
    mask = (a == expanded).astype(a.dtype)
    # Split the gradient among ties to keep the op well defined.
    denom = mask.sum(axis=axis, keepdims=True) if axis is not None \
        else mask.sum()
    return (mask * g / denom,)


# ----------------------------------------------------------------------
# Shape manipulation (the view ops alias their input)
# ----------------------------------------------------------------------
def _reshape(ins, attrs, out, state):
    return _into(out, ins[0].reshape(attrs["shape"]))


def _reshape_grad(g, ins, out, attrs, need, state):
    return (g.reshape(ins[0].shape),)


def _transpose(ins, attrs, out, state):
    return _into(out, ins[0].transpose(attrs["axes"]))


def _transpose_grad(g, ins, out, attrs, need, state):
    axes = attrs["axes"]
    if axes is None:
        return (g.transpose(),)
    return (g.transpose(tuple(np.argsort(axes))),)


def _getitem(ins, attrs, out, state):
    return _into(out, ins[0][attrs["index"]])


def _getitem_grad(g, ins, out, attrs, need, state):
    full = _scratch(state, "full", ins[0].shape, ins[0].dtype, zero=True)
    np.add.at(full, attrs["index"], g)
    return (full,)


def _concatenate(ins, attrs, out, state):
    return np.concatenate(ins, axis=attrs["axis"], out=out)


def _concatenate_grad(g, ins, out, attrs, need, state):
    axis = attrs["axis"]
    offsets = np.cumsum([0] + list(attrs["sizes"]))
    grads = []
    for flag, start, stop in zip(need, offsets[:-1], offsets[1:]):
        index = [slice(None)] * g.ndim
        index[axis] = slice(int(start), int(stop))
        grads.append(g[tuple(index)] if flag else None)
    return tuple(grads)


def _stack(ins, attrs, out, state):
    return np.stack(ins, axis=attrs["axis"], out=out)


def _stack_grad(g, ins, out, attrs, need, state):
    axis = attrs["axis"]
    pieces = np.split(g, len(ins), axis=axis)
    return tuple(np.squeeze(piece, axis=axis) if flag else None
                 for flag, piece in zip(need, pieces))


def _where(ins, attrs, out, state):
    return _into(out, np.where(attrs["cond"], ins[0], ins[1]))


def _where_grad(g, ins, out, attrs, need, state):
    a, b = ins
    cond = attrs["cond"]
    return (_unbroadcast(g * cond, a.shape) if need[0] else None,
            _unbroadcast(g * (~cond), b.shape) if need[1] else None)


def _gather_rows(ins, attrs, out, state):
    return _into(out, ins[0][attrs["index"]])


def _gather_rows_grad(g, ins, out, attrs, need, state):
    full = _scratch(state, "full", ins[0].shape, ins[0].dtype, zero=True)
    np.add.at(full, attrs["index"], g)
    return (full,)


def _scatter_add_rows(ins, attrs, out, state):
    values = ins[0]
    if out is None:
        out = np.zeros((attrs["num_rows"],) + values.shape[1:],
                       dtype=values.dtype)
    else:
        out.fill(0.0)
    np.add.at(out, attrs["index"], values)
    return out


def _scatter_add_rows_grad(g, ins, out, attrs, need, state):
    return (g[attrs["index"]],)


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------
def _relu(ins, attrs, out, state):
    return np.maximum(ins[0], 0.0, out=out)


def _relu_grad(g, ins, out, attrs, need, state):
    return (g * (ins[0] > 0),)


def _tanh(ins, attrs, out, state):
    return np.tanh(ins[0], out=out)


def _tanh_grad(g, ins, out, attrs, need, state):
    return (g * (1.0 - out ** 2),)


def _sigmoid(ins, attrs, out, state):
    # 1 / (1 + exp(-clip(a))), step by step in one buffer.
    out = np.clip(ins[0], -60.0, 60.0,
                  out=np.empty_like(ins[0]) if out is None else out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sigmoid_grad(g, ins, out, attrs, need, state):
    return (g * out * (1.0 - out),)


def _exp(ins, attrs, out, state):
    out = np.clip(ins[0], -700.0, 700.0,
                  out=np.empty_like(ins[0]) if out is None else out)
    return np.exp(out, out=out)


def _exp_grad(g, ins, out, attrs, need, state):
    return (g * out,)


def _log(ins, attrs, out, state):
    return np.log(ins[0], out=out)


def _log_grad(g, ins, out, attrs, need, state):
    return (g / ins[0],)


def _softplus(ins, attrs, out, state):
    """Numerically stable ``log(1 + exp(a))``."""
    a = ins[0]
    return _into(out, np.where(a > 30.0, a,
                               np.log1p(np.exp(np.minimum(a, 30.0)))))


def _softplus_grad(g, ins, out, attrs, need, state):
    sig = 1.0 / (1.0 + np.exp(-np.clip(ins[0], -60.0, 60.0)))
    return (g * sig,)


def _abs(ins, attrs, out, state):
    return np.abs(ins[0], out=out)


def _abs_grad(g, ins, out, attrs, need, state):
    return (g * np.sign(ins[0]),)


def _clip(ins, attrs, out, state):
    return np.clip(ins[0], attrs["low"], attrs["high"], out=out)


def _clip_grad(g, ins, out, attrs, need, state):
    a = ins[0]
    return (g * ((a >= attrs["low"]) & (a <= attrs["high"])),)


def _log_softmax(ins, attrs, out, state):
    # One primitive, not a composition: the max-shift is data
    # dependent, and a trace would bake a composed shift in as a frozen
    # constant.
    a, axis = ins[0], attrs["axis"]
    shifted = a - a.max(axis=axis, keepdims=True)
    denom = np.log(np.exp(np.clip(shifted, -700.0, 700.0))
                   .sum(axis=axis, keepdims=True))
    return np.subtract(shifted, denom, out=out)


def _log_softmax_grad(g, ins, out, attrs, need, state):
    return (g - np.exp(out) * g.sum(axis=attrs["axis"], keepdims=True),)


# ----------------------------------------------------------------------
# Convolution and pooling (NCHW)
# ----------------------------------------------------------------------
#: About how many bytes of im2col columns ``conv2d`` unfolds at a time,
#: so that each chunk's GEMM reads columns still in cache.
_CHUNK_BYTES = 1 << 20


def _conv_chunks(x: np.ndarray, w: np.ndarray, attrs
                 ) -> Tuple[int, int, List[Tuple[int, int]]]:
    """``(oh, ow, chunks)``: the output size, and the ``(lo, hi)``
    sample ranges the forward and the backward of ``conv2d`` share."""
    n, c, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    stride, padding = attrs["stride"], attrs["padding"]
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    per_sample = c * kh * kw * oh * ow * x.dtype.itemsize
    step = max(1, _CHUNK_BYTES // per_sample)
    return oh, ow, [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _parts(items: Sequence) -> List[Sequence]:
    """``items`` cut into contiguous runs, one per kernel worker.

    Inside a training step a kernel runs one run per worker
    (:func:`repro.util.threads.run_parts`); anywhere else the one run
    is all of ``items``.  Runs differ in length by at most one.
    """
    count = max(1, min(len(items), step_workers()))
    size, extra = divmod(len(items), count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [items[bounds[i]:bounds[i + 1]] for i in range(count)]


def _part_state(state: dict, part: Sequence[Tuple[int, int]]) -> dict:
    """The scratch of the part that starts at ``part``'s first sample.

    The first part keeps its buffers in ``state`` itself, so a serial
    call allocates no more than it did before kernels split.
    """
    lo = part[0][0] if part else 0
    return state if lo == 0 else state.setdefault(f"part@{lo}", {})


def _conv2d(ins, attrs, out, state):
    """GEMM over im2col columns; ``ins`` is ``(x, weight[, bias])``.

    The batch is unfolded and multiplied a chunk of about
    ``_CHUNK_BYTES`` of columns at a time, into one reused column
    buffer, so each chunk's GEMM reads columns still in cache and no
    whole-batch column buffer exists.  Inside a training step the
    chunks are split into contiguous parts that run on the kernel
    workers, each with its own column buffer.  A caller that convolves
    one input under many weight versions (serving) seeds
    ``state["cached_cols"]`` with its :func:`im2col` columns; the
    forward is then one batched GEMM over them.  A compiled replay's
    state never holds them, so every replay unfolds its current input.
    """
    x, w = ins[0], ins[1]
    c_out, c_in, kh, kw = w.shape
    n, ckk = x.shape[0], c_in * kh * kw
    oh, ow, chunks = _conv_chunks(x, w, attrs)
    if out is None:
        out = np.empty((n, c_out, oh, ow), np.result_type(x, w))
    res = out.reshape(n, c_out, oh * ow)
    cached = state.get("cached_cols")
    if cached is not None:
        chunks = [(0, n)]

    def work(part):
        scratch = _part_state(state, part)
        for lo, hi in part:
            cols = cached if cached is not None else im2col(
                x[lo:hi], (kh, kw), attrs["stride"], attrs["padding"],
                scratch)
            # Batched GEMM (BLAS): (o,k) @ (m,k,l) -> (m,o,l).
            rows = np.matmul(w.reshape(c_out, ckk),
                             cols.reshape(hi - lo, ckk, oh * ow),
                             out=res[lo:hi])
            if len(ins) == 3:
                np.add(rows, ins[2][None, :, None], out=rows)

    run_parts(work, _parts(chunks))
    return out


def _conv2d_grad(g, ins, out, attrs, need, state):
    """The forward's chunks again, each unfolded anew (or sliced from
    cached columns): the forward keeps no columns for it.

    Per chunk: the weight gradient's per-sample products, and the
    column gradient (one GEMM per sample) folded back onto the chunk's
    rows of the padded input gradient with ``kh*kw`` adds.  Inside a
    training step the chunks run in the forward's parts, each writing
    its own rows.  The products are summed over the batch once every
    chunk is done, so each element goes through the operations of a
    whole-batch kernel in the same order.
    """
    x, w = ins[0], ins[1]
    stride, padding = attrs["stride"], attrs["padding"]
    n, c, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    ckk = c * kh * kw
    oh, ow, chunks = _conv_chunks(x, w, attrs)
    g3 = g.reshape(n, c_out, oh * ow)
    cached = state.get("cached_cols")
    g_x = g_w = g_b = None
    if need[1]:
        products = _scratch(state, "g_w_samples", (n, c_out, ckk), g.dtype)
    if need[0]:
        gpad = _scratch(state, "g_pad", (n, c, h + 2 * padding,
                                         wd + 2 * padding), g.dtype,
                        zero=True)

    def work(part):
        scratch = _part_state(state, part)
        for lo, hi in part:
            m = hi - lo
            if need[1]:
                cols = cached[lo:hi] if cached is not None else im2col(
                    x[lo:hi], (kh, kw), stride, padding, scratch)
                np.matmul(g3[lo:hi], cols.reshape(m, ckk, oh * ow)
                          .transpose(0, 2, 1), out=products[lo:hi])
            if need[0]:
                g_cols = _scratch(scratch, "g_cols", (m, ckk, oh * ow),
                                  g.dtype)[:m]
                np.matmul(w.reshape(c_out, ckk).T, g3[lo:hi], out=g_cols)
                # Fold the column gradient back onto the (padded) input.
                patches = g_cols.reshape(m, c, kh, kw, oh, ow)
                for i in range(kh):
                    for j in range(kw):
                        gpad[lo:hi, :, i:i + stride * oh:stride,
                             j:j + stride * ow:stride] += patches[:, :, i, j]

    run_parts(work, _parts(chunks))
    if len(ins) == 3 and need[2]:
        g_b = g3.sum(axis=(0, 2))
    if need[0]:
        g_x = gpad[:, :, padding:padding + h, padding:padding + wd]
    if need[1]:
        g_w = products.sum(axis=0).reshape(w.shape)
    return (g_x, g_w) if len(ins) == 2 else (g_x, g_w, g_b)


def _pool_hw(x: np.ndarray, attrs) -> Tuple[int, int]:
    kernel, stride = attrs["kernel"], attrs["stride"]
    return ((x.shape[2] - kernel) // stride + 1,
            (x.shape[3] - kernel) // stride + 1)


def _offset_slices(a: np.ndarray, attrs) -> List[np.ndarray]:
    """The pooling windows' cells of NCHW ``a``, one view per offset.

    View ``(i, j)`` (row-major over the kernel) holds, for every
    window, its cell at offset ``(i, j)``; it has the output's shape.
    """
    kernel, stride = attrs["kernel"], attrs["stride"]
    oh, ow = _pool_hw(a, attrs)
    return [a[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(kernel) for j in range(kernel)]


def _max_pool2d(ins, attrs, out, state):
    """A running elementwise maximum over the kernel-offset slices,
    over contiguous sample ranges split as :func:`_parts` says."""
    x = ins[0]
    if out is None:
        out = np.empty(x.shape[:2] + _pool_hw(x, attrs), x.dtype)

    def work(rows):
        first, *rest = _offset_slices(x[rows.start:rows.stop], attrs)
        res = out[rows.start:rows.stop]
        np.copyto(res, first)
        for part in rest:
            # Of two equal values np.maximum returns its second
            # operand, so each window keeps the first of its maxima
            # (0.0 vs -0.0).
            np.maximum(part, res, out=res)

    run_parts(work, _parts(range(x.shape[0])))
    return out


def _max_pool2d_grad(g, ins, out, attrs, need, state):
    """Send each window's gradient to its first maximum, row-major.

    That is the cell ``argmax`` over the flattened window picks, ties
    included; a window holding NaN routes to its first NaN, as
    ``argmax`` does.  Every pass is elementwise per sample, so sample
    ranges split as :func:`_parts` says run independently.
    """
    x = ins[0]
    kernel, stride = attrs["kernel"], attrs["stride"]
    overlapping = stride < kernel
    # Windows that tile the input have the equality pass write every
    # cell; overlapping windows add, and cells no window covers stay 0.
    tiling = stride == kernel and x.shape[2] % kernel == 0 \
        and x.shape[3] % kernel == 0
    g_x = _scratch(state, "g_x", x.shape, g.dtype, zero=not tiling)
    free_all = _scratch(state, "free", out.shape, np.bool_)
    hit_all = _scratch(state, "hit", out.shape, np.bool_)
    # The integer type of g's width: a product with ``hit`` keeps g's
    # bits (-0.0 included) where it is 1 and writes +0.0 where it is 0.
    bits = np.dtype(f"i{g.dtype.itemsize}")

    def work(rows):
        rows = slice(rows.start, rows.stop)
        g_rows, out_rows = g[rows], out[rows]
        free, hit = free_all[rows], hit_all[rows]
        free.fill(True)
        # NaN equals nothing: windows still free after the equality
        # pass hold NaN, and the second pass claims their first NaN.
        for match in (functools.partial(np.equal, out_rows), np.isnan):
            for part, g_part in zip(_offset_slices(x[rows], attrs),
                                    _offset_slices(g_x[rows], attrs)):
                match(part, out=hit)
                hit &= free
                free ^= hit
                if overlapping:
                    np.add(g_part, g_rows, out=g_part, where=hit)
                elif match is np.isnan:
                    np.copyto(g_part, g_rows, where=hit)
                else:
                    # Each cell belongs to one window and this pass
                    # visits it once, so the slice is written whole:
                    # assigning keeps a -0.0 gradient, which adding to
                    # the zeroed buffer loses.
                    np.multiply(g_rows.view(bits), hit,
                                out=g_part.view(bits))
            if not free.any():
                break

    run_parts(work, _parts(range(x.shape[0])))
    return (g_x,)


def _avg_pool2d(ins, attrs, out, state):
    x = ins[0]
    kernel, stride = attrs["kernel"], attrs["stride"]
    oh, ow = _pool_hw(x, attrs)
    # Reduce over the strided window view itself: a contiguous copy
    # would change numpy's pairwise-summation blocking.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=x.shape[:2] + (oh, ow, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))
    return np.mean(windows, axis=(-1, -2), out=out)


def _avg_pool2d_grad(g, ins, out, attrs, need, state):
    kernel = attrs["kernel"]
    g_x = _scratch(state, "g_x", ins[0].shape, g.dtype, zero=True)
    gg = g * (1.0 / (kernel * kernel))
    for g_part in _offset_slices(g_x, attrs):
        g_part += gg
    return (g_x,)


# ----------------------------------------------------------------------
# The levelised GNN sweep (repro.model.gnn)
# ----------------------------------------------------------------------
def _sweep_steps(attrs, dtype, state):
    """The plan's level steps, fan-in scales cast to the buffer dtype."""
    steps = state.get("steps")
    if steps is None:
        steps = attrs["plan"].steps
        if dtype != np.float64:
            steps = [{key: value.astype(dtype)
                      if key.endswith("_inv_count") else value
                      for key, value in step.items()} for step in steps]
        state["steps"] = steps
    return steps


def _levelized_sweep(ins, attrs, out, state):
    """Every level of the sweep in one node; ``ins`` is ``(s, w_net, w_cell)``.

    Each node's row of ``h`` is written once, at its own level:
    ``h[dst] = relu(s[dst] + sum_kind mean(h[src]) @ w_kind)``.
    """
    s, wn, wc = ins
    level0 = attrs["level0"]
    hidden = s.shape[1]
    if out is None:
        h = np.zeros((attrs["num_nodes"], hidden), dtype=s.dtype)
    else:
        h = out
        h.fill(0.0)
    if level0.size:
        h[level0] = np.maximum(s[level0], 0.0)
    for step in _sweep_steps(attrs, s.dtype, state):
        dst = step["dst"]
        total = s[dst].copy()
        for kind, w in (("net", wn), ("cell", wc)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            msgs = h[src] @ w
            agg = np.zeros((len(dst), hidden), dtype=s.dtype)
            np.add.at(agg, step[f"{kind}_dst_local"], msgs)
            total += agg * step[f"{kind}_inv_count"]
        h[dst] = np.maximum(total, 0.0)
    return h


def _levelized_sweep_grad(g, ins, h, attrs, need, state):
    """The hand-written adjoint: the levels replayed in reverse order."""
    s, wn, wc = ins
    level0 = attrs["level0"]
    grad_h = _scratch(state, "grad_h", h.shape, h.dtype)
    np.copyto(grad_h, g)
    grad_s, grad_wn, grad_wc = (
        _scratch(state, key, arr.shape, arr.dtype, zero=True) if flag
        else None
        for key, arr, flag in (("grad_s", s, need[0]),
                               ("grad_wn", wn, need[1]),
                               ("grad_wc", wc, need[2])))
    for step in reversed(_sweep_steps(attrs, s.dtype, state)):
        dst = step["dst"]
        grad_total = grad_h[dst] * (h[dst] > 0.0)
        if grad_s is not None:
            grad_s[dst] += grad_total
        for kind, w, grad_w in (("net", wn, grad_wn),
                                ("cell", wc, grad_wc)):
            src = step[f"{kind}_src"]
            if src.size == 0:
                continue
            grad_agg = grad_total * step[f"{kind}_inv_count"]
            grad_msgs = grad_agg[step[f"{kind}_dst_local"]]
            if grad_w is not None:
                grad_w += h[src].T @ grad_msgs
            np.add.at(grad_h, src, grad_msgs @ w.T)
    if level0.size and grad_s is not None:
        grad_s[level0] += grad_h[level0] * (h[level0] > 0.0)
    return grad_s, grad_wn, grad_wc


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
for _name, _forward, _backward in (
        ("add", _add, _add_grad),
        ("mul", _mul, _mul_grad),
        ("neg", _neg, _neg_grad),
        ("truediv", _truediv, _truediv_grad),
        ("pow", _pow, _pow_grad),
        ("matmul", _matmul, _matmul_grad),
        ("sum", _sum, _sum_grad),
        ("max", _max, _max_grad),
        ("concatenate", _concatenate, _concatenate_grad),
        ("stack", _stack, _stack_grad),
        ("where", _where, _where_grad),
        ("gather_rows", _gather_rows, _gather_rows_grad),
        ("scatter_add_rows", _scatter_add_rows, _scatter_add_rows_grad),
        ("relu", _relu, _relu_grad),
        ("tanh", _tanh, _tanh_grad),
        ("sigmoid", _sigmoid, _sigmoid_grad),
        ("exp", _exp, _exp_grad),
        ("log", _log, _log_grad),
        ("softplus", _softplus, _softplus_grad),
        ("abs", _abs, _abs_grad),
        ("clip", _clip, _clip_grad),
        ("log_softmax", _log_softmax, _log_softmax_grad),
        ("conv2d", _conv2d, _conv2d_grad),
        ("max_pool2d", _max_pool2d, _max_pool2d_grad),
        ("avg_pool2d", _avg_pool2d, _avg_pool2d_grad),
        ("levelized_sweep", _levelized_sweep, _levelized_sweep_grad)):
    defop(_name, _forward, _backward)
for _name, _forward, _backward in (
        ("reshape", _reshape, _reshape_grad),
        ("transpose", _transpose, _transpose_grad),
        ("getitem", _getitem, _getitem_grad)):
    defop(_name, _forward, _backward, alias=True)
del _name, _forward, _backward
