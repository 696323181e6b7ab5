"""Functional neural-network operations built on the autograd engine.

Includes the convolution/pooling primitives used by the layout CNN, the
softmax family used by the contrastive loss, and the regression losses used
by the timing predictor (MSE and the Gaussian negative log-likelihood that
appears inside the ELBO).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import _tracing
from .grad_mode import is_grad_enabled
from .tensor import Tensor, _finish, as_tensor

LOG_2PI = float(np.log(2.0 * np.pi))


def _inference_only(grad: np.ndarray, out: Tensor) -> None:
    """Backward placeholder for ops with a dedicated no-grad fast path.

    Such ops are only reachable with gradients disabled, so ``_finish``
    drops this function without constructing a wiring closure; it can
    never legitimately run.
    """
    raise AssertionError("inference-only op entered backward")


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def _log_softmax_raw(x: np.ndarray, axis: int,
                     out: np.ndarray = None) -> np.ndarray:
    """Numerically stable log-softmax on a raw array (``out=`` capable).

    The exact arithmetic sequence of the historical Tensor composition
    (``x - max``, clipped exp, sum, log, subtract), shared by the eager
    op and the compiled kernel so both produce bit-identical values.
    """
    shifted = x - x.max(axis=axis, keepdims=True)
    denom = np.log(np.exp(np.clip(shifted, -700.0, 700.0))
                   .sum(axis=axis, keepdims=True))
    if out is None:
        return shifted - denom
    np.subtract(shifted, denom, out=out)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    A single primitive op (not a composition): the max-shift is a
    *data-dependent constant*, which a trace would otherwise bake in as
    a frozen value — replays with different inputs would silently lose
    the numerical stabilisation.  The closed-form backward is the
    standard ``g - softmax * sum(g)``.
    """
    out_data = _log_softmax_raw(x.data, axis)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        softm = np.exp(out_data)
        out._send(x, grad - softm * grad.sum(axis=axis, keepdims=True))

    return _finish(out_data, (x,), backward, op="log_softmax",
                   attrs={"axis": axis})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    target = as_tensor(target)
    return (prediction - target.detach()).abs().mean()


def gaussian_nll(prediction: Tensor, target: Tensor,
                 log_var: Tensor) -> Tensor:
    """Mean Gaussian negative log-likelihood.

    ``-log p(y | mu, sigma^2)`` with ``mu = prediction`` and
    ``sigma^2 = exp(log_var)``, averaged over elements.  This is the
    likelihood term of the ELBO in Equation (8)/(11) of the paper.
    """
    target = as_tensor(target)
    diff = prediction - target.detach()
    inv_var = (-log_var).exp()
    return (0.5 * (log_var + diff * diff * inv_var + LOG_2PI)).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Mean Huber (smooth-L1) loss; robust alternative used in ablations."""
    target = as_tensor(target)
    diff = (prediction - target.detach()).abs()
    clipped = diff.clip(0.0, delta)
    return (0.5 * clipped * clipped + delta * (diff - clipped)).mean()


# ----------------------------------------------------------------------
# Convolution via im2col
# ----------------------------------------------------------------------
def _im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int,
            padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold NCHW ``x`` into columns of shape (N, C*kh*kw, oh*ow)."""
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    strides = x.strides
    shape = (n, c, kh, kw, oh, ow)
    view_strides = (strides[0], strides[1], strides[2], strides[3],
                    strides[2] * stride, strides[3] * stride)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape,
                                              strides=view_strides)
    cols = patches.reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
            kernel: Tuple[int, int], stride: int, padding: int,
            oh: int, ow: int) -> np.ndarray:
    """Fold columns back into an NCHW array (adjoint of :func:`_im2col`)."""
    n, c, h, w = x_shape
    kh, kw = kernel
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                patches[:, :, i, j]
    if padding:
        out = out[:, :, padding:hp - padding, padding:wp - padding]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None, stride: int = 1,
           padding: int = 0,
           cols: Tuple[np.ndarray, int, int] = None) -> Tensor:
    """2D convolution on NCHW input.

    Parameters
    ----------
    x:
        Input of shape (N, C_in, H, W).
    weight:
        Kernels of shape (C_out, C_in, kH, kW).
    bias:
        Optional per-output-channel bias of shape (C_out,).
    cols:
        Optional precomputed ``_im2col(x.data, (kH, kW), stride,
        padding)`` triple.  The columns depend on ``x`` and the kernel
        geometry but not on the weights, so a caller that convolves
        the same input under many weight versions (serving) unfolds it
        once and starts every later forward at the GEMM.
    """
    c_out, c_in, kh, kw = weight.shape
    if cols is None:
        cols = _im2col(x.data, (kh, kw), stride, padding)
    cols, oh, ow = cols
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    # Batched GEMM (BLAS): (o,k) @ (n,k,l) -> (n,o,l).
    out_data = np.matmul(w_mat, cols)
    if bias is not None:
        # In place: out_data is a fresh array, and the extra
        # (N, C_out, oh*ow) temporary is measurable on big path batches.
        out_data += bias.data[None, :, None]
    out_data = out_data.reshape(x.shape[0], c_out, oh, ow)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        grad_mat = grad.reshape(x.shape[0], c_out, oh * ow)
        if weight.requires_grad:
            g_w = np.matmul(grad_mat, cols.transpose(0, 2, 1)).sum(axis=0)
            out._send(weight, g_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            out._send(bias, grad_mat.sum(axis=(0, 2)))
        if x.requires_grad:
            g_cols = np.matmul(w_mat.T, grad_mat)
            g_x = _col2im(g_cols, x.shape, (kh, kw), stride, padding, oh, ow)
            out._send(x, g_x)

    return _finish(out_data, parents, backward, op="conv2d",
                   attrs={"stride": stride, "padding": padding,
                          "has_bias": bias is not None})


def max_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Max pooling on NCHW input with square window."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    if not is_grad_enabled():
        # Forward-only fast path: the argmax / take_along_axis pass (and
        # the window-flattening copy feeding it) exists solely to route
        # gradients; a running elementwise maximum over the kernel-offset
        # slices yields the same window maxima bit for bit at a fraction
        # of the memory traffic.
        out_data = None
        for i in range(kernel):
            for j in range(kernel):
                part = x.data[:, :, i:i + stride * oh:stride,
                              j:j + stride * ow:stride]
                if out_data is None:
                    out_data = part.copy()
                else:
                    np.maximum(out_data, part, out=out_data)
        return _finish(out_data, (x,), _inference_only)
    strides = x.data.strides
    shape = (n, c, oh, ow, kernel, kernel)
    view_strides = (strides[0], strides[1], strides[2] * stride,
                    strides[3] * stride, strides[2], strides[3])
    windows = np.lib.stride_tricks.as_strided(x.data, shape=shape,
                                              strides=view_strides)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(grad: np.ndarray, out: Tensor) -> None:
        g_x = np.zeros_like(x.data)
        ki, kj = np.divmod(arg, kernel)
        if stride < kernel:
            n_i, c_i, oh_i, ow_i = np.indices((n, c, oh, ow))
            rows = oh_i * stride + ki
            cols_ = ow_i * stride + kj
            np.add.at(g_x, (n_i, c_i, rows, cols_), grad)
        else:
            # Non-overlapping windows: each input cell is the argmax of
            # at most one window, so the scatter targets are unique and
            # a flat fancy assignment replaces the slow np.add.at.
            rows = np.arange(oh)[None, None, :, None] * stride + ki
            cols_ = np.arange(ow)[None, None, None, :] * stride + kj
            chan = (np.arange(n)[:, None, None, None] * c
                    + np.arange(c)[None, :, None, None])
            g_x.ravel()[(chan * h + rows) * w + cols_] = grad
        out._send(x, g_x)

    return _finish(out_data, (x,), backward, op="max_pool2d",
                   attrs={"kernel": kernel, "stride": stride})


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Average pooling on NCHW input with square window."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    strides = x.data.strides
    shape = (n, c, oh, ow, kernel, kernel)
    view_strides = (strides[0], strides[1], strides[2] * stride,
                    strides[3] * stride, strides[2], strides[3])
    windows = np.lib.stride_tricks.as_strided(x.data, shape=shape,
                                              strides=view_strides)
    out_data = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray, out: Tensor) -> None:
        g_x = np.zeros_like(x.data)
        g = grad * scale
        for i in range(kernel):
            for j in range(kernel):
                g_x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g
        out._send(x, g_x)

    return _finish(out_data, (x,), backward, op="avg_pool2d",
                   attrs={"kernel": kernel, "stride": stride})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0.

    Untraceable: the mask is redrawn per call, so a compiled replay
    would freeze one mask forever.  An active trace is poisoned and the
    trainer falls back to eager execution.
    """
    if not training or rate <= 0.0:
        return x
    if _tracing.ACTIVE:
        _tracing.poison("dropout draws a fresh random mask per call")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# out=-capable kernel variants (the compiled step's building blocks)
# ----------------------------------------------------------------------
def _im2col_out(x: np.ndarray, kernel: Tuple[int, int], stride: int,
                padding: int, xpad: np.ndarray,
                cols6: np.ndarray) -> np.ndarray:
    """:func:`_im2col` into preallocated buffers (no strided reshape).

    ``xpad`` is the (possibly padded) input staging buffer — pass ``x``
    itself when ``padding == 0`` — and ``cols6`` a C-contiguous
    ``(n, c, kh, kw, oh, ow)`` buffer.  The per-(i, j) block copies
    land in contiguous destination planes, avoiding the pathological
    element-order copy ``as_strided(...).reshape`` performs; the
    returned ``(n, c*kh*kw, oh*ow)`` matrix is a free view of
    ``cols6`` with values bit-identical to :func:`_im2col`.
    """
    n, c, kh, kw, oh, ow = cols6.shape
    if padding:
        xpad[:, :, padding:padding + x.shape[2],
             padding:padding + x.shape[3]] = x
    else:
        xpad = x
    for i in range(kh):
        for j in range(kw):
            cols6[:, :, i, j] = xpad[:, :, i:i + stride * oh:stride,
                                     j:j + stride * ow:stride]
    return cols6.reshape(n, c * kh * kw, oh * ow)


def _col2im_out(cols: np.ndarray, kernel: Tuple[int, int], stride: int,
                padding: int, oh: int, ow: int, gpad: np.ndarray,
                gx: np.ndarray) -> np.ndarray:
    """:func:`_col2im` into preallocated buffers.

    ``gpad`` is the padded accumulation buffer (pass ``gx`` itself when
    ``padding == 0``); both are zeroed here.  Returns ``gx`` holding
    the unpadded fold, bit-identical to :func:`_col2im`.
    """
    n, c, hp, wp = gpad.shape
    kh, kw = kernel
    gpad.fill(0.0)
    patches = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            gpad[:, :, i:i + stride * oh:stride,
                 j:j + stride * ow:stride] += patches[:, :, i, j]
    if padding:
        gx[...] = gpad[:, :, padding:hp - padding, padding:wp - padding]
        return gx
    return gpad


def _pool_windows_out(x: np.ndarray, kernel: int, stride: int,
                      win: np.ndarray) -> np.ndarray:
    """Flattened pooling windows into a preallocated buffer.

    ``win`` is C-contiguous ``(n, c, oh, ow, kernel, kernel)``; the
    returned ``(n, c, oh, ow, kernel*kernel)`` array is a free view
    with the same logical content as the ``as_strided`` window view
    (and therefore the same reduction results, bit for bit).
    """
    n, c, oh, ow, kh, kw = win.shape
    for i in range(kh):
        for j in range(kw):
            win[:, :, :, :, i, j] = x[:, :, i:i + stride * oh:stride,
                                      j:j + stride * ow:stride]
    return win.reshape(n, c, oh, ow, kh * kw)
