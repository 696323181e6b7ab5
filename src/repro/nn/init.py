"""Weight initialisation helpers.

All initialisers take an explicit :class:`numpy.random.Generator` so that
every model in the reproduction is deterministic given a seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation.

    Fan-in/fan-out are computed from the first two dimensions; any further
    dimensions (convolution kernels) contribute their receptive-field size.
    """
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialisation for ReLU networks."""
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out
