"""Fast forward-only inference (serving) for the timing predictor.

See DESIGN.md §9 "Inference architecture":

- :class:`InferenceEngine` — no-grad, cached, fused multi-design
  prediction (``repro predict`` is its CLI surface);
- :class:`FeatureCache` / :func:`weight_digest` — per-design extractor
  memoisation invalidated automatically on any parameter change;
- :func:`save_predictor` / :func:`load_predictor` — serving
  checkpoints carrying weights *and* the finalised node population
  that Equation (7) reads each node's prior from.
"""

from .cache import BoundedLRU, FeatureCache, weight_digest
from .engine import InferenceEngine, Prediction
from .serialization import load_predictor, save_predictor

__all__ = [
    "BoundedLRU",
    "FeatureCache",
    "InferenceEngine",
    "Prediction",
    "load_predictor",
    "save_predictor",
    "weight_digest",
]
