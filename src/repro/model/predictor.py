"""The full timing predictor of the paper (ours).

Composition: path feature extractor (GNN + CNN) -> disentangler
(``u -> u_n, u_d``) -> Bayesian readout over ``[u_n, u_d]``.  Training
adds the node-contrastive and CMD alignment losses on the disentangled
halves; see :mod:`repro.train.trainer`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..flow import DesignData
from ..nn import Module, Tensor, no_grad
from .bayesian import BayesianReadout, build_prior_feature
from .disentangle import Disentangler
from .extractor import PathFeatureExtractor


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
                             max_paths_per_design: int = 128,
                             seed: int = 0) -> None:
        """Cache the node-level prior weights p(W | N) for inference.

        Equation (7) predicts by marginalising W over the *prior*
        ``p(W | N)`` — the node population distribution — not over the
        per-path variational posterior (q only exists to make training
        tractable).  This method builds each node's dummy feature
        ``u_tilde(N)`` from the training designs (mean node-dependent
        feature of the node, mean design-dependent feature over both
        nodes) and stores the resulting Gaussian.  Called automatically
        at the end of :class:`~repro.train.trainer.OursTrainer.fit`.
        Runs under :func:`~repro.nn.no_grad`: it returns arrays, so no
        autograd graph is ever recorded.
        """
        rng = np.random.default_rng(seed)
        un_by_node: Dict[str, list] = {}
        ud_all = []
        for design in designs:
            k = design.num_endpoints
            subset = np.arange(k) if k <= max_paths_per_design else \
                rng.choice(k, size=max_paths_per_design, replace=False)
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
        self._node_priors = {}
        for node in un_by_node:
            mu, log_var = self._prior_from_population(node)
            self._node_priors[node] = (mu, log_var)

    def _prior_feature(self, node: str,
                       extra_un: Optional[np.ndarray] = None,
                       extra_ud: Optional[np.ndarray] = None
                       ) -> np.ndarray:
        """``(1, m)`` dummy feature u_tilde(N) from stored population sums.

        Split out of :meth:`_prior_from_population` so batched inference
        (``repro.infer``) can stack many designs' rows and amortise the
        prior MLPs over one forward pass.
        """
        pop = self._population
        un_sum = pop["un_sum"][node].copy()
        un_count = pop["un_count"][node]
        ud_sum = pop["ud_sum"].copy()
        ud_count = pop["ud_count"]
        if extra_un is not None:
            un_sum += extra_un.sum(axis=0)
            un_count += len(extra_un)
        if extra_ud is not None:
            ud_sum += extra_ud.sum(axis=0)
            ud_count += len(extra_ud)
        return np.concatenate(
            [un_sum / un_count, ud_sum / ud_count]
        ).reshape(1, -1)

    def _prior_from_population(self, node: str,
                               extra_un: Optional[np.ndarray] = None,
                               extra_ud: Optional[np.ndarray] = None
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Prior Gaussian from stored population sums (+ optional extras)."""
        u_tilde = Tensor(self._prior_feature(node, extra_un, extra_ud))
        mu, log_var = self.readout.weight_distribution(u_tilde)
        return mu.data.copy(), log_var.data.copy()

    def _prior_weights(self, node: str) -> Tuple[np.ndarray, np.ndarray]:
        priors = getattr(self, "_node_priors", None)
        if not priors or node not in priors:
            raise RuntimeError(
                "node priors not finalised; train with OursTrainer or call "
                "finalize_node_priors() first"
            )
        return priors[node]

    @no_grad()
    def predict(self, design: DesignData,
                endpoint_subset: Optional[np.ndarray] = None,
                mc_samples: int = 0,
                transductive: bool = True,
                rng: Optional[np.random.Generator] = None,
                seed: int = 0) -> np.ndarray:
        """Arrival-time predictions for a design's endpoints.

        Uses Equation (7): the readout weight is the node-conditioned
        prior mean ``mu(u_tilde(N))``, applied to each path's feature.
        With ``transductive=True`` (default) the node population N also
        includes the queried design's own *unlabeled* paths — the paper
        conditions on "the distribution of all the timing paths on the
        target node", which at inference includes the design at hand.

        Parameters
        ----------
        mc_samples:
            0 uses the prior mean (deterministic, the expectation of the
            MC scheme); > 0 averages that many W samples from the prior.
        rng, seed:
            Generator for the MC prior draws (``rng`` wins; otherwise a
            fresh ``default_rng(seed)``).  Inference never touches the
            training noise RNG, so identical calls return identical
            predictions and never mutate model state.

        Runs under :func:`~repro.nn.no_grad` (as does
        :meth:`predict_with_uncertainty`): predictions are arrays, so
        recording an autograd graph would be pure overhead.
        """
        u, u_n, u_d = self.path_features(design, endpoint_subset)
        mu, log_var = self._design_prior(design, u_n.data, u_d.data,
                                         transductive)
        if mc_samples > 0:
            rng = rng if rng is not None else np.random.default_rng(seed)
            preds = self._sample_prior_predictions(u.data, mu, log_var,
                                                   mc_samples, rng)
            return preds.mean(axis=0)
        return u.data @ mu[0] + float(self.readout.bias.data[0])

    def _design_prior(self, design: DesignData, u_n: np.ndarray,
                      u_d: np.ndarray, transductive: bool
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Node prior, optionally updated with the design's own paths."""
        self._prior_weights(design.node)  # raises if not finalised
        if not transductive:
            return self._prior_weights(design.node)
        return self._prior_from_population(design.node, extra_un=u_n,
                                           extra_ud=u_d)

    @no_grad()
    def predict_with_uncertainty(self, design: DesignData,
                                 endpoint_subset: Optional[np.ndarray] = None,
                                 mc_samples: int = 16,
                                 rng: Optional[np.random.Generator] = None,
                                 seed: int = 0
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Predictive mean and standard deviation per endpoint.

        The paper never evaluates its predictive uncertainty; we expose
        it because the Bayesian head provides it for free (see the
        calibration ablation in EXPERIMENTS.md).  ``rng``/``seed``
        select the MC draws exactly as in :meth:`predict`.
        """
        u, u_n, u_d = self.path_features(design, endpoint_subset)
        mu, log_var = self._design_prior(design, u_n.data, u_d.data,
                                         transductive=True)
        rng = rng if rng is not None else np.random.default_rng(seed)
        preds = self._sample_prior_predictions(u.data, mu, log_var,
                                               mc_samples, rng)
        return preds.mean(axis=0), preds.std(axis=0)

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
