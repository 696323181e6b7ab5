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
- a cold extraction merges its designs into one disjoint-union graph
  (reusing :func:`repro.train.fused.merge_pin_graphs`) for a single
  levelised sweep, then runs the CNN once per design;
- the readout is the model's own Equation (7),
  :meth:`~repro.model.TimingPredictor.predict_from_features`, called
  once per request batch, so the prior MLPs run once over every
  design's row instead of once per design;
- the CNN is the training model's own :class:`~repro.model.LayoutCNN`
  forward under ``no_grad()``, running the registry ops training runs,
  and the *weight-independent* parts of a cold
  extraction — the fused batch structure and, per design, the first
  conv layer's im2col columns of its path images, handed to
  ``F.conv2d`` as precomputed ``cols``, both functions of the
  immutable design data alone — are memoised per design set, so they
  survive weight updates that invalidate the feature cache.  One CNN
  forward per design gives the same bits as one forward over every
  design's stacked images (each op is per image, or a GEMM whose rows
  are independent), with intermediates a design's size instead of the
  whole set's.

Numerics are the training path's: ``predict_many([design])`` equals
``TimingPredictor.predict(design)`` bit for bit, and a fused
multi-design call matches it to 1e-10, since BLAS may sum the union
graph's rows in another order (``tests/infer/test_engine.py``;
``benchmarks/bench_inference.py`` asserts the 1e-10 bound).

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
  forward (requests see the old weights or the new, never a mix), and
  every :class:`Prediction` carries the :attr:`~InferenceEngine.
  generation` whose weights computed it;
- :meth:`swap_model` extracts the given designs' features under the
  new weights *before* it takes the write lock, while the old model
  keeps answering, and installs weights and features together, so a
  reload never leaves the served designs cold;
- the digest a cold extraction was computed under is re-checked before
  the feature-cache store, so a weight edit that bypasses
  ``swap_model`` can still never publish stale features.  Every call
  digests the weights at least once (about 0.3 ms for the default
  model, half of a warm one-design call; see :mod:`repro.infer.cache`).
"""

from __future__ import annotations

import threading
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

__all__ = ["InferenceEngine", "Prediction", "check_unique_names"]

#: LRU bound on the fused batch structures (one per distinct set of
#: cold-extracted designs) a resident engine keeps across model updates.
MAX_STRUCT_ENTRIES = 8

#: A staged warm: ``(design, its features)`` pairs under one digest.
Staged = List[Tuple[DesignData, FeatureTriple]]


def image_columns(images: np.ndarray, conv: Conv2d) -> np.ndarray:
    """``conv``'s im2col columns of ``images`` (the ``cols`` of ``F.conv2d``).

    Weight-independent (only the kernel geometry matters), so the
    engine computes them once per design and reuses them across any
    number of model updates.
    """
    return im2col(images, conv.weight.shape[2:], conv.stride, conv.padding)


def _conv_geometry(conv: Conv2d) -> tuple:
    """What :func:`image_columns` of ``conv`` depend on."""
    return conv.weight.data.shape, conv.stride, conv.padding


def cnn_forward(cnn: LayoutCNN, images: np.ndarray,
                cols: Optional[np.ndarray] = None) -> np.ndarray:
    """Path embeddings of ``images`` through ``cnn``, no-grad.

    The training forward itself, starting at the first layer's GEMM
    when ``cols`` carries its cached :func:`image_columns`.
    """
    with no_grad():
        return cnn(Tensor(images), cols=cols).data


def check_unique_names(designs: Sequence[DesignData]) -> None:
    """Refuse two designs with one name (ValueError naming it): the
    engine's results and the server's designs are keyed by name."""
    seen = set()
    for design in designs:
        if design.name in seen:
            raise ValueError(
                f"design name {design.name!r} appears more than once")
        seen.add(design.name)


class Prediction:
    """One design's serving result (arrays, not tensors)."""

    __slots__ = ("name", "node", "mean", "std", "num_endpoints",
                 "generation")

    def __init__(self, name: str, node: str, mean: np.ndarray,
                 std: Optional[np.ndarray] = None,
                 generation: int = 1) -> None:
        self.name = name
        self.node = node
        self.mean = mean
        self.std = std
        self.num_endpoints = int(mean.shape[0])
        #: The engine generation whose weights computed this result.
        self.generation = generation

    def __repr__(self) -> str:
        flag = ", std" if self.std is not None else ""
        return (f"Prediction({self.name}@{self.node}, "
                f"endpoints={self.num_endpoints}{flag})")


class InferenceEngine:
    """Batched, cached, no-grad serving front-end for one model.

    Parameters
    ----------
    model:
        A trained predictor whose node populations have been finalised
        (``OursTrainer.fit`` does this; so does
        :func:`repro.infer.load_predictor`).

    The engine extracts and caches features; the numbers are the
    model's Equation (7), the code ``TimingPredictor.predict`` runs.
    """

    def __init__(self, model: TimingPredictor) -> None:
        self.model = model
        #: Models served so far: 1 for ``model``, one more per
        #: :meth:`swap_model`.
        self.generation = 1
        #: Per-design extractor outputs keyed by the weight digest.
        self.cache = FeatureCache()
        #: design-set key -> (FusedDesignBatch, per-design (images,
        #: cols)); the union graph and the conv1 columns are
        #: weight-independent.  Keyed on each design's content digest,
        #: not only its name, and evictions are counted in :meth:`stats`.
        self._structs: BoundedLRU = BoundedLRU(MAX_STRUCT_ENTRIES)
        #: Shared by predictions (read) and swap_model (write): a
        #: hot-reload is mutually exclusive with in-flight forwards.
        self._rw = RWLock()
        #: Held across a whole warm or swap (extract, then install), so
        #: a warm never stores features over a newer model's.
        self._swap = threading.Lock()

    # ------------------------------------------------------------------
    # Feature extraction (the cached, expensive half)
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(model: TimingPredictor) -> str:
        with timed("infer.digest"):
            return weight_digest(model)

    def _batch_struct(self, designs: Sequence[DesignData],
                      conv: Conv2d) -> tuple:
        """Weight-independent structure of a design set: the union graph,
        and per design its path images with ``conv``'s columns of them.

        Cached only while ``conv`` has the served model's geometry, so
        a swap's warm never leaves columns for another kernel behind.
        """
        key = tuple(design_key(d) for d in designs)
        cacheable = _conv_geometry(conv) == \
            _conv_geometry(self.model.extractor.cnn.conv1)
        struct = self._structs.get(key) if cacheable else None
        if struct is None:
            batch = FusedDesignBatch(list(designs))
            layouts = [(images, image_columns(images, conv))
                       for images in (d.path_image_stack() for d in designs)]
            struct = (batch, layouts)
            if cacheable:
                self._structs.put(key, struct)
        return struct

    def _extract(self, model: TimingPredictor,
                 designs: Sequence[DesignData]) -> List[FeatureTriple]:
        """Cold per-design triples under ``model``: one GNN sweep over
        the designs' union graph, then one CNN forward per design over
        its cached conv1 columns."""
        with timed("infer.features"):
            batch, layouts = self._batch_struct(designs,
                                                model.extractor.cnn.conv1)
            u_graph = model.extractor.gnn(batch.graph,
                                          batch.graph.endpoint_rows).data
            u_layout = np.concatenate([
                cnn_forward(model.extractor.cnn, images, cols=cols)
                for images, cols in layouts])
            u = np.concatenate([u_graph, u_layout], axis=1)
            u_n, u_d = (t.data for t in model.disentangler(Tensor(u)))
        return [(u[lo:hi], u_n[lo:hi], u_d[lo:hi]) for lo, hi in
                slice_ranges([d.num_endpoints for d in designs])]

    def _features_many(self, designs: Sequence[DesignData]
                       ) -> List[FeatureTriple]:
        """Per-design triples, extracting every cache miss in ONE cold
        pass (:meth:`_extract`)."""
        model = self.model
        digest = self._digest(model)
        triples: List[Optional[FeatureTriple]] = [None] * len(designs)
        misses: List[int] = []
        for i, design in enumerate(designs):
            hit = self.cache.lookup(design, digest)
            if hit is not None:
                triples[i] = hit
            else:
                misses.append(i)
        if misses:
            extracted = self._extract(model, [designs[i] for i in misses])
            # One digest recompute per coalesced batch: store the whole
            # batch's triples only if the weights did not change under
            # us while the fused forward ran.
            storable = self._digest(model) == digest
            for i, triple in zip(misses, extracted):
                triples[i] = triple
                if storable:
                    self.cache.store(designs[i], digest, triple)
        return triples  # type: ignore[return-value]

    def _stage(self, model: TimingPredictor,
               designs: Sequence[DesignData]) -> Tuple[str, Staged]:
        """``model``'s digest, and the features under it of each design
        the cache holds none for, extracted without the engine lock.

        The designs are extracted in ``design_key`` order, so every warm
        of one design set shares one structure entry.  Nothing is staged
        if the weights change while they run.
        """
        if not designs:
            return "", []
        digest = self._digest(model)
        cold = {design_key(d): d for d in designs
                if not self.cache.holds(d, digest)}
        missed = [cold[key] for key in sorted(cold)]
        if not missed:
            return digest, []
        with no_grad():
            triples = self._extract(model, missed)
        if self._digest(model) != digest:
            return digest, []
        return digest, list(zip(missed, triples))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_many(self, designs: Sequence[DesignData],
                     mc_samples: int = 0,
                     with_uncertainty: bool = False,
                     seed: int = 0) -> Dict[str, Prediction]:
        """Fused multi-design prediction, keyed by design name: one
        graph sweep and one CNN forward for every cache-missing design,
        then the model's Equation (7) over every design at once
        (:meth:`TimingPredictor.predict_from_features`: one prior-MLP
        forward, per-design readouts).

        Each design draws from a fresh ``default_rng(seed)``, so results
        match per-design ``TimingPredictor.predict(..., seed=seed)``
        calls.  Two designs may not share a name.
        """
        check_unique_names(designs)
        with self._rw.read(), no_grad(), timed("infer.predict_many"):
            generation = self.generation
            triples = self._features_many(designs)
            with timed("infer.eq7"):
                results = self.model.predict_from_features(
                    [d.node for d in designs], triples,
                    mc_samples=mc_samples, with_std=with_uncertainty,
                    seed=seed)
        return {design.name: Prediction(design.name, design.node, mean,
                                        std, generation)
                for design, (mean, std) in zip(designs, results)}

    # ------------------------------------------------------------------
    # Warm-up and hot reload
    # ------------------------------------------------------------------
    def warm(self, designs: Sequence[DesignData]) -> int:
        """Cache the served model's features of ``designs`` in one cold
        pass, skipping those already cached: :meth:`swap_model`'s staged
        warm without the swap.  Returns how many were extracted."""
        with self._swap:
            digest, staged = self._stage(self.model, designs)
            for design, triple in staged:
                self.cache.store(design, digest, triple)
        return len(staged)

    def swap_model(self, model: TimingPredictor,
                   warm: Sequence[DesignData] = ()) -> None:
        """Atomically replace the served predictor, warm for ``warm``.

        First the features of the ``warm`` designs are extracted under
        the new weights (one cold pass; a design already cached under
        the new digest is skipped) while the old model keeps serving:
        no engine lock is held.  Then the write side of the engine lock
        installs the weights, those features and the next
        :attr:`generation` at once: the swap waits for in-flight
        predictions, no prediction can start mid-swap, and a request
        sees the old weights or the new, never a mixture, and never a
        cold new model for a warmed design.  The feature cache needs no
        flush — its entries are digest-keyed, so the new weights simply
        miss.  The weight-independent structure cache survives unless
        the new model's first conv layer has a different geometry (then
        its cached im2col columns are shaped for the wrong kernel and
        are dropped; the warm builds its own).
        """
        with self._swap:
            digest, staged = self._stage(model, warm)
            compatible = _conv_geometry(model.extractor.cnn.conv1) == \
                _conv_geometry(self.model.extractor.cnn.conv1)
            with self._rw.write():
                self.model = model
                self.generation += 1
                if not compatible:
                    self._structs.clear()
                for design, triple in staged:
                    self.cache.store(design, digest, triple)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Hit/miss/entry counters of the feature cache."""
        return self.cache.stats()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Entry/eviction counters for both cache tiers (for /stats)."""
        return {
            "features": self.cache_stats(),
            "structs": self._structs.stats(),
        }
