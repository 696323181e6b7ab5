"""The full timing predictor of the paper (ours).

Composition: path feature extractor (GNN + CNN) -> disentangler
(``u -> u_n, u_d``) -> Bayesian readout over ``[u_n, u_d]``.  Training
adds the node-contrastive and CMD alignment losses on the disentangled
halves; see :mod:`repro.train.trainer`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flow import DesignData
from ..nn import Module, Tensor, no_grad
from .bayesian import BayesianReadout, build_prior_feature
from .disentangle import Disentangler
from .extractor import PathFeatureExtractor

#: Paths sampled from each training design into its node's population
#: (:meth:`TimingPredictor.finalize_node_priors`).
POPULATION_PATHS_PER_DESIGN = 128

#: One design's ``(u, u_n, u_d)`` path-feature arrays.
FeatureTriple = Tuple[np.ndarray, np.ndarray, np.ndarray]


class TimingPredictor(Module):
    """Disentangle-align-generalize timing predictor.

    Parameters
    ----------
    in_features:
        Pin-graph node feature width (depends on the merged vocabulary).
    gnn_hidden, gnn_out, cnn_channels, cnn_out:
        Extractor sizes; ``m = gnn_out + cnn_out``.
    readout_hidden:
        Width of the amortisation MLPs in the Bayesian head.
    mc_samples:
        Monte-Carlo samples for the ELBO likelihood term.
    seed:
        Seed for all weight init.
    """

    def __init__(self, in_features: int, gnn_hidden: int = 32,
                 gnn_out: int = 24, cnn_channels: int = 6, cnn_out: int = 8,
                 readout_hidden: int = 32, mc_samples: int = 4,
                 seed: int = 0) -> None:
        super().__init__()
        #: Constructor arguments, recorded so a trained predictor can be
        #: rebuilt from a checkpoint (see ``repro.infer.serialization``).
        self.init_config = {
            "in_features": in_features, "gnn_hidden": gnn_hidden,
            "gnn_out": gnn_out, "cnn_channels": cnn_channels,
            "cnn_out": cnn_out, "readout_hidden": readout_hidden,
            "mc_samples": mc_samples, "seed": seed,
        }
        rng = np.random.default_rng(seed)
        self.extractor = PathFeatureExtractor(
            in_features, gnn_hidden=gnn_hidden, gnn_out=gnn_out,
            cnn_channels=cnn_channels, cnn_out=cnn_out, rng=rng,
        )
        m = self.extractor.feature_size
        self.disentangler = Disentangler(m, rng=rng)
        self.readout = BayesianReadout(m, hidden=readout_hidden,
                                       mc_samples=mc_samples, rng=rng)
        self.feature_size = m
        #: Node population sums and counts, set by
        #: :meth:`finalize_node_priors`; None until then.
        self._population: Optional[dict] = None

    # ------------------------------------------------------------------
    def path_features(self, design: DesignData,
                      endpoint_subset: Optional[np.ndarray] = None
                      ) -> Tuple[Tensor, Tensor, Tensor]:
        """``(u, u_n, u_d)`` for (a subset of) a design's paths."""
        u = self.extractor(design, endpoint_subset)
        u_n, u_d = self.disentangler(u)
        return u, u_n, u_d

    @no_grad()
    def finalize_node_priors(self, designs: Sequence[DesignData],
                             seed: int = 0) -> None:
        """Record the node populations that p(W | N) is read from.

        Equation (7) predicts by marginalising W over the *prior*
        ``p(W | N)`` — the node population distribution — not over the
        per-path variational posterior (q only exists to make training
        tractable).  This method stores, from at most
        :data:`POPULATION_PATHS_PER_DESIGN` sampled paths per training
        design, the sums and counts that each node's dummy feature
        ``u_tilde(N)`` is built from (mean node-dependent feature of the
        node, mean design-dependent feature over every node); the prior
        itself is read per query, in :meth:`predict_from_features`.
        Called automatically at the end of
        :class:`~repro.train.trainer.OursTrainer.fit`.  Runs under
        :func:`~repro.nn.no_grad`: it returns arrays, so no autograd
        graph is ever recorded.
        """
        rng = np.random.default_rng(seed)
        un_by_node: Dict[str, list] = {}
        ud_all = []
        for design in designs:
            k = design.num_endpoints
            subset = np.arange(k) if k <= POPULATION_PATHS_PER_DESIGN \
                else rng.choice(k, size=POPULATION_PATHS_PER_DESIGN,
                                replace=False)
            _, u_n, u_d = self.path_features(design, subset)
            un_by_node.setdefault(design.node, []).append(u_n.data)
            ud_all.append(u_d.data)
        ud_stack = np.concatenate(ud_all)
        # Keep sums and counts (not just means) so inference can fold a
        # new design's own unlabeled paths into the node population
        # (Equation 7 conditions on *all* paths of the node N).
        self._population = {
            "ud_sum": ud_stack.sum(axis=0),
            "ud_count": float(len(ud_stack)),
            "un_sum": {node: np.concatenate(f).sum(axis=0)
                       for node, f in un_by_node.items()},
            "un_count": {node: float(sum(len(x) for x in f))
                         for node, f in un_by_node.items()},
        }

    def _prior_feature(self, node: str, extra_un: np.ndarray,
                       extra_ud: np.ndarray) -> np.ndarray:
        """``(1, m)`` dummy feature u_tilde(N): the stored population of
        ``node`` with a design's own paths ``extra_un``/``extra_ud``
        folded in."""
        pop = self._population
        if pop is None or node not in pop["un_sum"]:
            raise RuntimeError(
                f"no node population for {node!r}; train with "
                "OursTrainer or call finalize_node_priors() first"
            )
        un_sum = pop["un_sum"][node] + extra_un.sum(axis=0)
        un_count = pop["un_count"][node] + len(extra_un)
        ud_sum = pop["ud_sum"] + extra_ud.sum(axis=0)
        ud_count = pop["ud_count"] + len(extra_ud)
        return np.concatenate(
            [un_sum / un_count, ud_sum / ud_count]
        ).reshape(1, -1)

    @no_grad()
    def predict_from_features(self, nodes: Sequence[str],
                              features: Sequence[FeatureTriple],
                              mc_samples: int = 0,
                              with_std: bool = False,
                              seed: int = 0
                              ) -> List[Tuple[np.ndarray,
                                              Optional[np.ndarray]]]:
        """Equation (7) for several designs: ``(mean, std)`` per design.

        ``features[i]`` is design ``i``'s ``(u, u_n, u_d)`` arrays (from
        :meth:`path_features`, or the inference engine's cache) and
        ``nodes[i]`` its node.  Each design's own unlabeled paths join
        its node's population — the paper conditions on "the
        distribution of all the timing paths on the target node", which
        at inference includes the design at hand — and the prior MLPs
        run once over every design's dummy-feature row.  The readout
        weight is then the prior mean (``mc_samples == 0``), or
        ``mc_samples`` draws from the prior Gaussian, from a fresh
        ``default_rng(seed)`` per design: a design's answer does not
        depend on which other designs share the call, and inference
        never touches the training noise RNG.  ``std`` is the MC
        standard deviation when ``with_std``, else None.
        """
        if with_std and mc_samples <= 0:
            raise ValueError("uncertainty needs mc_samples > 0")
        rows = np.concatenate([
            self._prior_feature(node, u_n, u_d)
            for node, (_, u_n, u_d) in zip(nodes, features)])
        mu, log_var = (t.data for t in
                       self.readout.weight_distribution(Tensor(rows)))
        bias = float(self.readout.bias.data[0])
        out = []
        for i, (u, _, _) in enumerate(features):
            if mc_samples > 0:
                preds = self._sample_prior_predictions(
                    u, mu[i:i + 1], log_var[i:i + 1], mc_samples,
                    np.random.default_rng(seed))
                out.append((preds.mean(axis=0),
                            preds.std(axis=0) if with_std else None))
            else:
                out.append((u @ mu[i] + bias, None))
        return out

    def _design_features(self, design: DesignData,
                         endpoint_subset: Optional[np.ndarray]
                         ) -> FeatureTriple:
        """:meth:`path_features` as arrays."""
        u, u_n, u_d = self.path_features(design, endpoint_subset)
        return u.data, u_n.data, u_d.data

    @no_grad()
    def predict(self, design: DesignData,
                endpoint_subset: Optional[np.ndarray] = None,
                mc_samples: int = 0, seed: int = 0) -> np.ndarray:
        """Arrival-time predictions for a design's endpoints.

        Equation (7) (:meth:`predict_from_features`) over the design's
        freshly extracted features: ``mc_samples == 0`` applies the
        prior mean (deterministic, the expectation of the MC scheme);
        ``mc_samples > 0`` averages that many W draws from the prior,
        seeded by ``seed``.

        Runs under :func:`~repro.nn.no_grad` (as does
        :meth:`predict_with_uncertainty`): predictions are arrays, so
        recording an autograd graph would be pure overhead.
        """
        [(mean, _)] = self.predict_from_features(
            [design.node], [self._design_features(design, endpoint_subset)],
            mc_samples=mc_samples, seed=seed)
        return mean

    @no_grad()
    def predict_with_uncertainty(self, design: DesignData,
                                 endpoint_subset: Optional[np.ndarray] = None,
                                 mc_samples: int = 16, seed: int = 0
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and standard deviation per endpoint.

        The paper never evaluates its predictive uncertainty; we expose
        it because the Bayesian head provides it for free (see the
        calibration ablation in EXPERIMENTS.md).  ``seed`` selects the
        MC draws exactly as in :meth:`predict`.
        """
        [(mean, std)] = self.predict_from_features(
            [design.node], [self._design_features(design, endpoint_subset)],
            mc_samples=mc_samples, with_std=True, seed=seed)
        return mean, std

    def _sample_prior_predictions(self, u: np.ndarray, mu: np.ndarray,
                                  log_var: np.ndarray, n_samples: int,
                                  rng: np.random.Generator) -> np.ndarray:
        """``(n_samples, K)`` MC predictions under the prior Gaussian.

        One ``(n_samples,) + mu.shape`` draw and one batched matmul
        replace the historical per-sample Python loop; the generator
        fills C-order, so the draws (and therefore the predictions)
        match the looped version sample for sample under the same seed.
        """
        std = np.exp(0.5 * log_var)
        bias = float(self.readout.bias.data[0])
        eps = rng.standard_normal((n_samples,) + mu.shape)
        w = (mu + std * eps)[:, 0, :]          # (n_samples, m)
        return (u @ w.T).T + bias

    def prior_for(self, u_node: Tensor, u_design_all: Tensor
                  ) -> Tuple[Tensor, Tensor]:
        """Prior Gaussian parameters for one node (Equation 10)."""
        u_tilde = build_prior_feature(u_node, u_design_all)
        return self.readout.weight_distribution(u_tilde)
