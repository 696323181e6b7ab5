"""The paper's model: extractor, disentanglement, alignment, Bayesian head."""

from .baseline import DAC23Model
from .bayesian import BayesianReadout, build_prior_feature
from .cnn import LayoutCNN
from .disentangle import Disentangler
from .extractor import PathFeatureExtractor
from .gnn import TimingGNN
from .losses import (cmd_loss, cmd_loss_multi, node_contrastive_loss,
                     node_contrastive_loss_multi)
from .predictor import TimingPredictor

__all__ = [
    "BayesianReadout",
    "DAC23Model",
    "Disentangler",
    "LayoutCNN",
    "PathFeatureExtractor",
    "TimingGNN",
    "TimingPredictor",
    "build_prior_feature",
    "cmd_loss",
    "cmd_loss_multi",
    "node_contrastive_loss",
    "node_contrastive_loss_multi",
]
