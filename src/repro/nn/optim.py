"""The Adam optimiser for the autograd engine."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear every parameter's gradient buffer."""
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # -- state dict ----------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of hyper-parameters and per-parameter buffers.

        Scalars plus lists of ndarrays (position-aligned with
        ``self.parameters``); no Tensors, so the dict is directly
        persistable.  ``kind`` records the concrete class so a snapshot
        can never be loaded into the wrong optimiser.
        """
        return {"kind": type(self).__name__}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Raises ``ValueError`` on a kind mismatch or a buffer whose
        length/shape disagrees with the current parameter list, and
        ``KeyError`` naming any missing field — always *before* any
        internal state is mutated.
        """
        kind = state.get("kind")
        if kind != type(self).__name__:
            raise ValueError(
                f"optimizer state dict is for {kind!r}, cannot load "
                f"into {type(self).__name__}"
            )

    def _checked_buffers(self, state: Mapping[str, Any], key: str
                         ) -> List[np.ndarray]:
        """Validate + copy one per-parameter buffer list from ``state``."""
        buffers = state[key]
        if len(buffers) != len(self.parameters):
            raise ValueError(
                f"optimizer buffer {key!r} has {len(buffers)} entries "
                f"for {len(self.parameters)} parameters"
            )
        out: List[np.ndarray] = []
        for i, (buf, p) in enumerate(zip(buffers, self.parameters)):
            if buf is None:
                raise ValueError(f"optimizer buffer {key}[{i}] is None")
            buf = np.asarray(buf)
            if buf.shape != p.data.shape:
                raise ValueError(
                    f"optimizer buffer {key}[{i}] has shape {buf.shape}, "
                    f"parameter has {p.data.shape}"
                )
            out.append(buf.copy())
        return out

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Returns the norm before clipping.
        """
        total = 0.0
        for p in self.parameters:
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            for p in self.parameters:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, Any]:
        state = super().state_dict()
        state.update(
            lr=float(self.lr), beta1=float(self.beta1),
            beta2=float(self.beta2), eps=float(self.eps),
            weight_decay=float(self.weight_decay), t=int(self._t),
            m=[m.copy() for m in self._m],
            v=[v.copy() for v in self._v],
        )
        return state

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        super().load_state_dict(state)
        m = self._checked_buffers(state, "m")
        v = self._checked_buffers(state, "v")
        # Read every scalar before the first assignment: a missing one
        # raises with nothing written.
        scalars = [float(state[key]) for key in
                   ("lr", "beta1", "beta2", "eps", "weight_decay")]
        t = int(state["t"])
        self.lr, self.beta1, self.beta2, self.eps, self.weight_decay = \
            scalars
        self._t, self._m, self._v = t, m, v
