"""Layer/module abstractions on top of the autograd engine.

Mirrors the small subset of ``torch.nn`` the paper's model needs: a
:class:`Module` base with recursive parameter collection, :class:`Linear`,
:class:`Conv2d`, activations, :class:`Sequential`, and an :class:`MLP`
convenience wrapper (the paper uses several two-layer MLPs).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .serialization import check_tensor_set
from .tensor import Tensor


class Module:
    """Base class for layers and models.

    Subclasses register parameters by assigning :class:`Tensor` attributes
    with ``requires_grad=True`` and submodules by assigning :class:`Module`
    attributes.  :meth:`parameters` walks the attribute tree recursively.
    """

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    # -- parameter handling ------------------------------------------------
    def named_tensors(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield (dotted_name, tensor) for every tensor attribute of the
        module tree, depth first, frozen ones included.

        Frozen (ablation-pinned) tensors are part of the weight digest
        and of saved checkpoints, so this is the one walker;
        :meth:`named_parameters` filters it.
        """
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_tensors(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_tensors(prefix=f"{full}.{i}.")
                    elif isinstance(item, Tensor):
                        yield f"{full}.{i}", item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield (dotted_name, parameter) for every trainable tensor."""
        return ((name, t) for name, t in self.named_tensors(prefix)
                if t.requires_grad)

    def parameters(self) -> List[Tensor]:
        """Return all trainable parameters of the module tree."""
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        """Clear the gradient buffers of every parameter."""
        for p in self.parameters():
            p.grad = None

    # -- state dict ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values in place; names and shapes must match
        exactly (``KeyError`` / ``ValueError`` before any write)."""
        params = dict(self.named_parameters())
        check_tensor_set(params, state)
        for name, value in state.items():
            # repro-check: disable=tensor-data-mutation -- checkpoint load writes leaf parameters between steps
            params[name].data[...] = value


class Linear(Module):
    """Affine transform ``y = x @ W + b`` with W of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            init.xavier_uniform((in_features, out_features), rng),
            requires_grad=True,
        )
        self.bias = Tensor(init.zeros((out_features,)), requires_grad=True) \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2D convolution layer on NCHW input."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0,
                 bias: bool = True) -> None:
        super().__init__()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Tensor(init.kaiming_uniform(shape, rng),
                             requires_grad=True)
        self.bias = Tensor(init.zeros((out_channels,)), requires_grad=True) \
            if bias else None

    def forward(self, x: Tensor,
                cols: Optional[np.ndarray] = None) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, cols=cols)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]

    def __len__(self) -> int:
        return len(self.modules)


class MLP(Module):
    """Multi-layer perceptron with configurable activations.

    Parameters
    ----------
    sizes:
        Layer widths, e.g. ``[in, hidden, out]`` builds two linear layers.
    rng:
        Random generator for weight initialisation.
    activation:
        Hidden activation; one of ``"relu"``, ``"tanh"``.
    final_activation:
        Optional activation after the last linear layer (the paper's
        ``MLP_d`` appends a tanh; ``MLP_n`` has none).
    """

    _ACTIVATIONS = {"relu": ReLU, "tanh": Tanh}

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator,
                 activation: str = "relu",
                 final_activation: Optional[str] = None) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        layers: List[Module] = []
        for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(d_in, d_out, rng))
            if i < len(sizes) - 2:
                layers.append(self._ACTIVATIONS[activation]())
        if final_activation is not None:
            layers.append(self._ACTIVATIONS[final_activation]())
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
