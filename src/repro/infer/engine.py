"""Forward-only inference engine for the timing predictor.

Serving a trained :class:`~repro.model.TimingPredictor` through its
per-design ``predict()`` repeats work a resident process need not
repeat: one full GNN sweep + CNN forward per call even when the model
has not changed, and a separate prior-MLP forward per design.
:class:`InferenceEngine` has one prediction path,
:meth:`~InferenceEngine.predict_many`, which removes both:

- extractor outputs are memoised per design in a
  :class:`~repro.infer.cache.FeatureCache` keyed by the model's weight
  digest, so repeated queries — the serving pattern — skip the GNN and
  CNN entirely and reduce to two small matmuls;
- the cache-missing designs are merged into one disjoint-union graph
  (reusing :func:`repro.train.fused.merge_pin_graphs`) for a single
  levelised sweep + one stacked CNN forward, and the transductive
  population-prior update is hoisted out of the per-design loop into
  one batched prior-MLP forward;
- the CNN is the training model's own :class:`~repro.model.LayoutCNN`
  forward under ``no_grad()`` (where max pooling takes its
  slice-maximum path), and the *weight-independent* parts of a cold
  extraction — the fused batch structure and the first conv layer's
  im2col columns of its stacked images, handed to ``F.conv2d`` as
  precomputed ``cols``, both functions of the immutable design data
  alone — are memoised per design set, so they survive weight updates
  that invalidate the feature cache.

Numerics are the training path's: ``predict_many([design])`` matches
``TimingPredictor.predict(design)`` to ~1e-10 (asserted by
``tests/infer/test_engine.py`` and ``benchmarks/bench_inference.py``).

The engine is **thread-safe and resident-process-safe** (the contract
``repro.serve`` builds on, DESIGN.md §13):

- ``predict_many`` enters :func:`repro.nn.no_grad` itself — the flag is
  thread-local, so a server worker thread calling in from a fresh
  thread must not depend on the constructing thread's scope;
- the weight-independent structure cache is an LRU bounded at
  :data:`MAX_STRUCT_ENTRIES`, so an open-ended stream of distinct
  request mixes cannot grow memory without limit;
- predictions take a shared read lock and :meth:`swap_model` takes the
  write side, so a hot-reload can never interleave with an in-flight
  forward (requests see the old weights or the new, never a mix);
- the digest a cold extraction was computed under is re-checked before
  the feature-cache store, so a weight edit that bypasses
  ``swap_model`` can still never publish stale features.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow import DesignData
from ..model import LayoutCNN, TimingPredictor
from ..nn import Conv2d, Tensor, no_grad
from ..nn.ops import im2col
from ..train.fused import FusedDesignBatch, slice_ranges
from ..util import RWLock, timed
from .cache import (BoundedLRU, FeatureCache, FeatureTriple, design_key,
                    weight_digest)

__all__ = ["InferenceEngine", "Prediction"]

#: LRU bound on the fused batch structures (one per distinct set of
#: cache-missing designs) a resident engine keeps across model updates.
MAX_STRUCT_ENTRIES = 8


def image_columns(images: np.ndarray, conv: Conv2d) -> np.ndarray:
    """``conv``'s im2col columns of ``images`` (the ``cols`` of ``F.conv2d``).

    Weight-independent (only the kernel geometry matters), so the
    engine computes them once per design set and reuses them across any
    number of model updates.
    """
    return im2col(images, conv.weight.shape[2:], conv.stride, conv.padding)


def cnn_forward(cnn: LayoutCNN, images: np.ndarray,
                cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Path embeddings of ``images`` through ``cnn``, no-grad.

    The training forward itself, starting at the first layer's GEMM
    when ``cols`` carries its cached :func:`image_columns`.
    """
    with no_grad():
        return cnn(Tensor(images), cols=cols).data


class Prediction:
    """One design's serving result (arrays, not tensors)."""

    __slots__ = ("name", "node", "mean", "std", "num_endpoints")

    def __init__(self, name: str, node: str, mean: np.ndarray,
                 std: Optional[np.ndarray] = None) -> None:
        self.name = name
        self.node = node
        self.mean = mean
        self.std = std
        self.num_endpoints = int(mean.shape[0])

    def __repr__(self) -> str:
        flag = ", std" if self.std is not None else ""
        return (f"Prediction({self.name}@{self.node}, "
                f"endpoints={self.num_endpoints}{flag})")


class InferenceEngine:
    """Batched, cached, no-grad serving front-end for one model.

    Parameters
    ----------
    model:
        A trained predictor whose node priors have been finalised
        (``OursTrainer.fit`` does this; so does
        :func:`repro.infer.load_predictor`).
    use_cache:
        Memoise per-design extractor outputs keyed by the weight
        digest.  Disable for strictly stateless serving.

    Every prediction folds each queried design's own (unlabeled) paths
    into its node population before reading the prior — Equation (7)'s
    "all the timing paths on the target node", ``predict()``'s default.
    """

    def __init__(self, model: TimingPredictor,
                 use_cache: bool = True) -> None:
        self.model = model
        self.cache: Optional[FeatureCache] = \
            FeatureCache() if use_cache else None
        #: design-set key -> (FusedDesignBatch, subsets, images, cols);
        #: the union graph and stacked images are weight-independent.
        #: Keyed on each design's content digest, not only its name, and
        #: evictions are counted in :meth:`stats`.
        self._structs: BoundedLRU = BoundedLRU(MAX_STRUCT_ENTRIES)
        #: Shared by predictions (read) and swap_model (write): a
        #: hot-reload is mutually exclusive with in-flight forwards.
        self._rw = RWLock()

    # ------------------------------------------------------------------
    # Feature extraction (the cached, expensive half)
    # ------------------------------------------------------------------
    def _digest(self) -> str:
        with timed("infer.digest"):
            return weight_digest(self.model)

    def _batch_struct(self, missed: Sequence[DesignData]) -> tuple:
        """Weight-independent batch structure for a set of designs:
        union graph, full endpoint subsets, stacked images, columns."""
        key = tuple(design_key(d) for d in missed)
        struct = self._structs.get(key)
        if struct is None:
            batch = FusedDesignBatch(list(missed))
            subsets = [np.arange(d.num_endpoints) for d in missed]
            images = batch.stacked_path_images(subsets)
            cols = image_columns(images, self.model.extractor.cnn.conv1)
            struct = (batch, subsets, images, cols)
            self._structs.put(key, struct)
        return struct

    def _features_many(self, designs: Sequence[DesignData]
                       ) -> List[FeatureTriple]:
        """Per-design triples, extracting every cache miss in ONE fused
        forward (union graph sweep + stacked CNN)."""
        digest = self._digest() if self.cache is not None else ""
        triples: List[Optional[FeatureTriple]] = [None] * len(designs)
        misses: List[int] = []
        for i, design in enumerate(designs):
            hit = self.cache.lookup(design, digest) \
                if self.cache is not None else None
            if hit is not None:
                triples[i] = hit
            else:
                misses.append(i)
        if misses:
            missed = [designs[i] for i in misses]
            model = self.model
            with timed("infer.features"):
                batch, subsets, images, cols = self._batch_struct(missed)
                rows = batch.merged_endpoint_rows(subsets)
                u_graph = model.extractor.gnn(batch.graph, rows).data
                u_layout = cnn_forward(model.extractor.cnn, images,
                                       cols=cols)
                u = np.concatenate([u_graph, u_layout], axis=1)
                u_n, u_d = (t.data for t in model.disentangler(Tensor(u)))
            # One digest recompute per coalesced batch: store the whole
            # batch's triples only if the weights did not change under
            # us while the fused forward ran.
            storable = self.cache is not None and self._digest() == digest
            for (lo, hi), i in zip(
                    slice_ranges([len(s) for s in subsets]), misses):
                triple = (u[lo:hi], u_n[lo:hi], u_d[lo:hi])
                triples[i] = triple
                if storable:
                    self.cache.store(designs[i], digest, triple)
        return triples  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Priors (the cheap, per-query half)
    # ------------------------------------------------------------------
    def _batched_priors(self, designs: Sequence[DesignData],
                        triples: Sequence[FeatureTriple]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """``(D, m)`` prior mu / log_var rows, one MLP forward for all.

        The transductive update (folding each design's own paths into
        its node population) happens in plain numpy per design — only
        the amortisation MLPs, the part worth batching, run once over
        the stacked ``u_tilde`` rows.
        """
        model = self.model
        rows = []
        for design, (_, u_n, u_d) in zip(designs, triples):
            model._prior_weights(design.node)  # raises if not finalised
            rows.append(model._prior_feature(design.node, extra_un=u_n,
                                             extra_ud=u_d))
        with timed("infer.prior"), no_grad():
            mu, log_var = model.readout.weight_distribution(
                Tensor(np.concatenate(rows, axis=0)))
        return mu.data, log_var.data

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _readout(self, u: np.ndarray, mu: np.ndarray,
                 log_var: np.ndarray, mc_samples: int,
                 draw: np.random.Generator,
                 with_std: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Apply the prior readout to features (vectorised MC draws)."""
        model = self.model
        if mc_samples > 0:
            preds = model._sample_prior_predictions(
                u, mu, log_var, mc_samples, draw)
            std = preds.std(axis=0) if with_std else None
            return preds.mean(axis=0), std
        mean = u @ mu[0] + float(model.readout.bias.data[0])
        return mean, None

    def predict_many(self, designs: Sequence[DesignData],
                     mc_samples: int = 0,
                     with_uncertainty: bool = False,
                     rng: Optional[np.random.Generator] = None,
                     seed: int = 0) -> Dict[str, Prediction]:
        """Fused multi-design prediction: one graph sweep and one CNN
        forward for every cache-missing design, one batched prior-MLP
        forward for all, then per-design readouts.

        When ``rng`` is None each design draws from a fresh
        ``default_rng(seed)``, so results match per-design
        ``TimingPredictor.predict(..., seed=seed)`` calls exactly; pass
        an explicit generator to consume one stream across designs
        instead.
        """
        if with_uncertainty and mc_samples <= 0:
            raise ValueError("uncertainty needs mc_samples > 0")
        with self._rw.read(), no_grad(), timed("infer.predict_many"):
            triples = self._features_many(designs)
            mu_all, lv_all = self._batched_priors(designs, triples)
            out: Dict[str, Prediction] = {}
            for i, (design, (u, _, _)) in enumerate(zip(designs, triples)):
                draw = rng if rng is not None else \
                    np.random.default_rng(seed)
                mean, std = self._readout(
                    u, mu_all[i:i + 1], lv_all[i:i + 1], mc_samples,
                    draw, with_std=with_uncertainty)
                out[design.name] = Prediction(design.name, design.node,
                                              mean, std)
        return out

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def swap_model(self, model: TimingPredictor) -> None:
        """Atomically replace the served predictor.

        Takes the write side of the engine lock, so the swap waits for
        in-flight predictions and no prediction can start mid-swap: a
        request sees the old weights or the new, never a mixture.  The
        feature cache needs no flush — its entries are digest-keyed, so
        the new weights simply miss.  The weight-independent structure
        cache survives unless the new model's first conv layer has a
        different geometry (then its cached im2col columns are shaped
        for the wrong kernel and are dropped).
        """
        old = self.model.extractor.cnn.conv1
        new = model.extractor.cnn.conv1
        compatible = (old.weight.data.shape == new.weight.data.shape
                      and old.stride == new.stride
                      and old.padding == new.padding)
        with self._rw.write():
            self.model = model
            if not compatible:
                self._structs.clear()

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters (zeros when the cache is disabled)."""
        if self.cache is None:
            return {"hits": 0, "misses": 0, "entries": 0}
        return self.cache.stats()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Entry/eviction counters for both cache tiers (for /stats)."""
        return {
            "features": self.cache_stats(),
            "structs": self._structs.stats(),
        }
