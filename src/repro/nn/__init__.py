"""Minimal numpy autograd + neural-network engine (PyTorch substitute).

Public surface:

- :class:`Tensor` and the differentiable helpers in :mod:`repro.nn.tensor`
- layers in :mod:`repro.nn.layers` (:class:`Linear`, :class:`Conv2d`,
  :class:`MLP`, ...)
- functional ops and losses in :mod:`repro.nn.functional`
- optimisers in :mod:`repro.nn.optim`
"""

from . import functional
from . import init
from .compile import (CompiledStep, CompileError, ReplayMismatch,
                      step_index, step_input, trace)
from .grad_mode import enable_grad, is_grad_enabled, no_grad
from .layers import (
    Conv2d,
    Flatten,
    LayerNorm,
    Linear,
    MaxPool2d,
    MLP,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import Adam, Optimizer, SGD
from .schedulers import (
    ConstantLR,
    CosineDecay,
    LinearDecay,
    Scheduler,
    StepDecay,
    WarmupWrapper,
)
from .serialization import (CheckpointError, atomic_savez, load_module,
                            save_module)
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
    "ConstantLR",
    "Conv2d",
    "CosineDecay",
    "Flatten",
    "LayerNorm",
    "Linear",
    "MaxPool2d",
    "MLP",
    "Module",
    "Optimizer",
    "ReLU",
    "LinearDecay",
    "SGD",
    "Scheduler",
    "Sequential",
    "StepDecay",
    "WarmupWrapper",
    "Sigmoid",
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
    "load_module",
    "no_grad",
    "save_module",
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
