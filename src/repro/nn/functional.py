"""Functional neural-network operations built on the autograd engine.

Includes the convolution/pooling primitives used by the layout CNN,
``log_softmax`` for the contrastive loss, and the MSE regression loss.
The primitives here (``log_softmax``, ``conv2d``, ``max_pool2d``,
``avg_pool2d``) are registry ops whose numpy forward and backward live
in :mod:`repro.nn.ops`; everything else composes them.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, apply, as_tensor


# ----------------------------------------------------------------------
# Softmax
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    A single primitive op (not a composition): the max-shift is a
    *data-dependent constant*, which a trace would otherwise bake in as
    a frozen value — replays with different inputs would silently lose
    the numerical stabilisation.  The closed-form backward is the
    standard ``g - softmax * sum(g)``.
    """
    return apply("log_softmax", (x,), {"axis": axis})


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


# ----------------------------------------------------------------------
# Convolution and pooling
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None, stride: int = 1,
           padding: int = 0, cols: np.ndarray = None) -> Tensor:
    """2D convolution on NCHW input (im2col + one batched GEMM).

    Parameters
    ----------
    x:
        Input of shape (N, C_in, H, W).
    weight:
        Kernels of shape (C_out, C_in, kH, kW).
    bias:
        Optional per-output-channel bias of shape (C_out,).
    cols:
        Optional precomputed ``repro.nn.ops.im2col(x.data, (kH, kW),
        stride, padding)`` columns.  They depend on ``x`` and the
        kernel geometry but not on the weights, so a caller that
        convolves the same input under many weight versions (serving)
        unfolds it once and starts every later forward at the GEMM.
        They enter as the op's initial state.
    """
    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply("conv2d", parents, {"stride": stride, "padding": padding},
                 None if cols is None else {"cached_cols": cols})


def max_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Max pooling on NCHW input with square window."""
    return apply("max_pool2d", (x,),
                 {"kernel": kernel, "stride": stride or kernel})


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Average pooling on NCHW input with square window."""
    return apply("avg_pool2d", (x,),
                 {"kernel": kernel, "stride": stride or kernel})


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dimensions, (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))

