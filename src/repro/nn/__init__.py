"""Minimal numpy autograd + neural-network engine (PyTorch substitute).

Public surface:

- :class:`Tensor` and the differentiable helpers in :mod:`repro.nn.tensor`
- layers in :mod:`repro.nn.layers` (:class:`Linear`, :class:`Conv2d`,
  :class:`MLP`, ...)
- functional ops and losses in :mod:`repro.nn.functional`
- the Adam optimiser in :mod:`repro.nn.optim`
"""

from . import functional
from . import init
from .compile import (CompiledStep, CompileError, ReplayMismatch,
                      step_index, step_input, trace)
from .grad_mode import enable_grad, is_grad_enabled, no_grad
from .layers import (
    Conv2d,
    Linear,
    MLP,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from .optim import Adam, Optimizer
from .serialization import CheckpointError, atomic_savez
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    gather_rows,
    scatter_add_rows,
    stack,
    where,
)

__all__ = [
    "Adam",
    "Conv2d",
    "Linear",
    "MLP",
    "Module",
    "Optimizer",
    "ReLU",
    "Sequential",
    "Tanh",
    "Tensor",
    "as_tensor",
    "concatenate",
    "enable_grad",
    "functional",
    "gather_rows",
    "init",
    "is_grad_enabled",
    "CheckpointError",
    "atomic_savez",
    "no_grad",
    "scatter_add_rows",
    "stack",
    "where",
    "CompiledStep",
    "CompileError",
    "ReplayMismatch",
    "trace",
    "step_input",
    "step_index",
]
