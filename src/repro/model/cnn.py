"""Layout CNN (the image modality of the path feature extractor).

Consumes the three-channel layout images (cell density, RUDY, macro
region) masked by each timing path's pin locations, and produces one
embedding per path.  Architecture is a standard small conv stack with
global average pooling; the paper's 3x512x512 input is scaled down to
3x32x32 (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn import Conv2d, Linear, Module, Tensor
from ..nn import functional as F
from ..util import timed


class LayoutCNN(Module):
    """Small CNN: masked layout images -> path embeddings.

    Parameters
    ----------
    in_channels:
        Image channels (3: density / RUDY / macro).
    channels:
        Width of the conv stack.
    out_features:
        Embedding size per path.
    rng:
        Generator for weight init.
    """

    def __init__(self, in_channels: int, channels: int, out_features: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_channels, channels, 3, rng, padding=1)
        self.conv2 = Conv2d(channels, 2 * channels, 3, rng, padding=1)
        self.conv3 = Conv2d(2 * channels, 2 * channels, 3, rng, padding=1)
        self.project = Linear(2 * channels, out_features, rng)

    def forward(self, images: Tensor,
                cols: Optional[Tuple[np.ndarray, int, int]] = None
                ) -> Tensor:
        """``(K, C, R, R)`` masked images -> ``(K, out_features)``.

        ``cols`` optionally carries ``conv1``'s precomputed im2col
        columns of ``images`` (see :func:`repro.nn.functional.conv2d`).
        ReLU follows each max pool rather than preceding it: max and
        ReLU commute (ReLU is monotone), so values and gradients are
        the same, and the ReLU then touches a quarter of the elements.
        """
        with timed("cnn.forward"):
            h = F.max_pool2d(self.conv1(images, cols=cols), 2).relu()
            h = F.max_pool2d(self.conv2(h), 2).relu()
            h = self.conv3(h).relu()
            h = F.global_avg_pool2d(h)
            return self.project(h)
