"""Bayesian timing prediction head (Section 3.4).

The readout weight ``W`` is not a fixed parameter but a diagonal Gaussian
whose mean and (log-)variance are *amortised* by two small MLPs:

- variational posterior ``q(W | G')``: conditioned on the single path's
  disentangled feature ``[u_n, u_d]`` (Equation 9);
- prior ``p(W | N)``: conditioned on a dummy feature ``u_tilde``
  representing the whole node's path population (Equation 10), built from
  the mean node-dependent feature of the node and the mean
  design-dependent feature pooled over *both* nodes (which the CMD loss
  has aligned).

Training maximises the ELBO (Equation 11): Monte-Carlo Gaussian
log-likelihood under q minus ``KL(q || p)``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..nn import MLP, Module, Tensor

#: Clamp on predicted log-variances, for numerical sanity.
_LOGVAR_RANGE = (-10.0, 4.0)


class BayesianReadout(Module):
    """Amortised Gaussian readout ``y = u . W`` (plus a fixed bias).

    Parameters
    ----------
    feature_size:
        Path feature width ``m``; W has ``m`` entries (as in the paper,
        W in R^{1 x m}).
    hidden:
        Hidden width of the mu/Sigma MLPs.
    mc_samples:
        Monte-Carlo samples K used for the likelihood term.
    rng:
        Generator for weight init and reparameterisation noise.
    seed:
        Seed for the fallback Generator used when ``rng`` is not given;
        construction is deterministic either way.
    """

    def __init__(self, feature_size: int, hidden: int = 32,
                 mc_samples: int = 4, correction_scale: float = 0.2,
                 rng: Optional[np.random.Generator] = None,
                 seed: int = 0) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.feature_size = feature_size
        self.mc_samples = mc_samples
        self.correction_scale = correction_scale
        self._noise_rng = np.random.default_rng(rng.integers(2 ** 32))
        out = feature_size
        self.mu_net = MLP([feature_size, hidden, out], rng)
        self.logvar_net = MLP([feature_size, hidden, out], rng)
        # Residual parametrisation: mu(u) = W_base + MLP(u).  The shared
        # base weight anchors every path's readout to one robust linear
        # solution; the amortisation MLP only has to learn the
        # input-conditioned *correction*.  (Identical function family to
        # a plain MLP(u), but far better conditioned with few designs.)
        # As in the paper, W has no bias (W in R^{1 x m}); a single fixed
        # scalar bias is kept outside the distribution for stability.
        self.w_base = Tensor(np.zeros(out), requires_grad=True)
        self.bias = Tensor(np.zeros(1), requires_grad=True)
        for layer_param in self.mu_net.net.modules[-1].__dict__.values():
            if isinstance(layer_param, Tensor):
                # repro-check: disable=tensor-data-mutation -- init-time rescale, no graph recorded yet
                layer_param.data *= 0.1
        # Start with a tight weight distribution (log sigma^2 ~ -4) so
        # early training is not drowned in reparameterisation noise.
        # repro-check: disable=tensor-data-mutation -- init-time bias preset, no graph recorded yet
        self.logvar_net.net.modules[-1].bias.data[...] = -4.0

    # ------------------------------------------------------------------
    def weight_distribution(self, u: Tensor) -> Tuple[Tensor, Tensor]:
        """Gaussian parameters of W given features ``u`` of shape (K, m).

        Returns ``(mu, log_var)`` of shape ``(K, m + 1)`` each.  Used both
        for the posterior (u = per-path features) and the prior (u = the
        node's dummy feature, K = 1).
        """
        mu = self.w_base + self.correction_scale * self.mu_net(u)
        log_var = self.logvar_net(u).clip(*_LOGVAR_RANGE)
        return mu, log_var

    def draw_noise(self, mu_shape: Tuple[int, ...],
                   n_samples: Optional[int] = None) -> np.ndarray:
        """Reparameterisation noise ``(S,) + mu_shape`` for one MC pass.

        One batched ``standard_normal`` consumes the exact PCG64 stream
        the historical per-sample loop did (the generator fills the
        output in C order), so pre-drawing noise outside the graph —
        which the compiled step needs, since a replay cannot re-run the
        generator — leaves the run's random stream unchanged.
        """
        n_samples = n_samples or self.mc_samples
        return self._noise_rng.standard_normal((n_samples,) + mu_shape)

    def sample_predictions_from(self, u: Tensor, mu: Tensor,
                                log_var: Tensor,
                                n_samples: Optional[int] = None,
                                eps: Optional[Tensor] = None) -> Tensor:
        """MC predictions under an explicit Gaussian over W.

        ``mu``/``log_var`` may be per-path ``(K, m)`` (posterior) or a
        single node-level row ``(1, m)`` (prior) that broadcasts.
        ``eps`` (shape ``(S,) + mu.shape``) injects pre-drawn
        reparameterisation noise; when omitted it is drawn here from
        the head's own generator (see :meth:`draw_noise`).
        """
        if eps is None:
            eps = Tensor(self.draw_noise(mu.shape, n_samples))
        std = (log_var * 0.5).exp()
        w = mu + std * eps
        return (u * w).sum(axis=2, keepdims=True) + self.bias

    # ------------------------------------------------------------------
    @staticmethod
    def _as_label_tensor(labels) -> Tensor:
        """Labels as a ``(1, K, 1)`` tensor; pass-through when already one.

        Accepting a pre-shaped Tensor lets the trainer register labels
        as a compiled step input (``step_input``) instead of baking one
        step's values into the trace.
        """
        if isinstance(labels, Tensor):
            return labels
        return Tensor(np.asarray(labels, dtype=float).reshape(1, -1, 1))

    def expected_nll(self, u: Tensor, z: Tensor, labels: np.ndarray,
                     obs_var: float = 1.0,
                     n_samples: Optional[int] = None,
                     eps: Optional[Tensor] = None) -> Tensor:
        """Monte-Carlo estimate of ``-E_q[log p(y | G', W)]`` (mean).

        This is the (negated) first term of Equation (11).  ``obs_var``
        is the Gaussian observation variance of the node the paths come
        from; conditioning the likelihood's scale on the node population
        N is what keeps one node's (absolutely larger) errors from
        drowning the other's — the failure mode of SimpleMerge that
        Figure 6 illustrates.
        """
        y = self._as_label_tensor(labels)
        mu, log_var = self.weight_distribution(z)
        preds = self.sample_predictions_from(u, mu, log_var, n_samples,
                                             eps=eps)
        sq = (preds - y) * (preds - y)
        log2pi = float(np.log(2.0 * np.pi))
        nll = 0.5 * (sq * (1.0 / obs_var)
                     + float(np.log(obs_var)) + log2pi)
        return nll.mean()

    @staticmethod
    def kl_divergence(q_mu: Tensor, q_log_var: Tensor, p_mu: Tensor,
                      p_log_var: Tensor) -> Tensor:
        """``KL(q || p)`` between diagonal Gaussians, averaged over paths.

        ``q_*`` has shape (K, m+1); ``p_*`` has shape (1, m+1) and
        broadcasts across the batch.
        """
        var_q = q_log_var.exp()
        var_p = p_log_var.exp()
        diff = q_mu - p_mu
        per_dim = p_log_var - q_log_var \
            + (var_q + diff * diff) / var_p - 1.0
        return 0.5 * per_dim.sum(axis=1).mean()

    def elbo_loss(self, u: Tensor, z: Tensor, labels: np.ndarray,
                  prior_mu: Tensor, prior_log_var: Tensor,
                  kl_weight: Union[float, Tensor] = 1.0,
                  obs_var: float = 1.0,
                  noise: Optional[Tuple[Tensor, Tensor]] = None,
                  ) -> Tensor:
        """Negative ELBO (Equation 11) plus the direct Eq-7 likelihood.

        The ELBO lower-bounds ``log p(y | G', N)`` through the posterior
        q; since inference marginalises W over the *prior* (Equation 7),
        we additionally maximise the predictive likelihood under the
        prior itself, with weight 1.  This trains the node-level readout
        that inference actually uses, instead of relying on the KL term
        to transport fit quality from q to p.

        ``noise`` optionally supplies the pre-drawn ``(eps_q, eps_p)``
        reparameterisation noise; the trainer uses this to make the
        loss a pure function of its inputs, as compiled replays
        require.  For the same reason ``kl_weight`` may be a 0-d
        step-input tensor; the product is ``kl * kl_weight`` either way.
        """
        eps_q, eps_p = noise if noise is not None else (None, None)
        nll = self.expected_nll(u, z, labels, obs_var=obs_var, eps=eps_q)
        q_mu, q_log_var = self.weight_distribution(z)
        kl = self.kl_divergence(q_mu, q_log_var, prior_mu, prior_log_var)
        loss = nll + kl * kl_weight
        y = self._as_label_tensor(labels)
        preds = self.sample_predictions_from(u, prior_mu, prior_log_var,
                                             eps=eps_p)
        sq = (preds - y) * (preds - y)
        prior_nll = (0.5 * sq * (1.0 / obs_var)).mean()
        return loss + prior_nll


def build_prior_feature(u_node: Tensor, u_design_all: Tensor) -> Tensor:
    """Construct the dummy feature ``u_tilde(N)`` for one node.

    Parameters
    ----------
    u_node:
        Node-dependent features of the node's paths in the batch,
        ``(K_node, m/2)``; their mean represents the node (consistent
        within a node by the contrastive loss).
    u_design_all:
        Design-dependent features of *all* paths from *both* nodes,
        ``(K_all, m/2)``; their mean represents the aligned design
        population (CMD has brought the two nodes' distributions
        together).

    Returns
    -------
    Tensor
        ``(1, m)`` dummy path feature.
    """
    from ..nn import concatenate

    node_mean = u_node.mean(axis=0, keepdims=True)
    design_mean = u_design_all.mean(axis=0, keepdims=True)
    return concatenate([node_mean, design_mean], axis=1)
