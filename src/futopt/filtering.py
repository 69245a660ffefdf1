"""Conditional-expectation filter for the latent drift.

The drift and the observed return increments form a linear-Gaussian pair

    beta_{n+1} = (I + alpha dt) beta_n + varsigma dW2_n
    dR_n       = beta_n dt + sigma dW_n

so the conditional expectation beta_hat_n = E[beta_n | returns through n-1]
is computed exactly by a discrete Kalman recursion.  Each step folds the
newest return increment into the estimate and then propagates it forward,
which keeps beta_hat_n measurable with respect to returns observed strictly
before t_n.  The innovation increments

    d_nu_n = sigma^{-1} (dR_n - beta_hat_n dt)

are serially uncorrelated with covariance rho dt under the model, and they
are uncorrelated with any function of past returns, prices included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError
from .params import MarketParams, _as_matrix

__all__ = [
    "FilterHistory",
    "default_p_cov0",
    "run_filter_batch",
]


def default_p_cov0(params: MarketParams) -> np.ndarray:
    """Weakly informative prior covariance varsigma varsigma* max(dt, 0.01)."""
    scale = max(params.delta_t, 0.01)
    return params.varsigma @ params.varsigma.T * scale


class _FilterMats:
    """Precomputed matrices shared by every filter step."""

    def __init__(self, params: MarketParams):
        if not params.sigma_invertible():
            raise SingularModelError("volatility matrix sigma")
        d, dt = params.d, params.delta_t
        self.dt = dt
        self.A = np.eye(d) + params.alpha * dt
        self.Q = params.varsigma @ params.varsigma.T * dt
        self.R_obs = params.noise_cov()
        self.sigma_inv = np.linalg.inv(params.sigma)
        self.I = np.eye(d)


def _kalman_step(beta_hat, p_cov, delta_R, mats, step):
    """One update + predict cycle; beta_hat may carry a leading path axis."""
    dt = mats.dt
    resid = delta_R - beta_hat * dt
    d_nu = resid @ mats.sigma_inv.T

    S = p_cov * dt * dt + mats.R_obs
    try:
        gain = dt * np.linalg.solve(S, p_cov).T       # K = P H* S^{-1}, H = dt I
    except np.linalg.LinAlgError:
        raise SingularModelError("innovation covariance", step) from None
    if not np.all(np.isfinite(gain)):
        raise SingularModelError("innovation covariance", step)

    beta_post = beta_hat + resid @ gain.T
    ikh = mats.I - gain * dt
    p_post = ikh @ p_cov @ ikh.T + gain @ mats.R_obs @ gain.T   # Joseph form

    beta_next = beta_post @ mats.A.T
    p_next = mats.A @ p_post @ mats.A.T + mats.Q
    p_next = 0.5 * (p_next + p_next.T)
    return beta_next, p_next, d_nu


@dataclass
class FilterHistory:
    """Full filter trajectory over a batch of paths.

    beta_hat rows are the estimates available at the start of each step;
    d_nu holds the N innovation increments.  As in PathBatch, memory is
    step-major: beta_hat and d_nu are (n_paths, ..., d) views of
    (N + 1 | N, n_paths, d) buffers, so a path's slice is strided and keeps
    the whole batch alive.
    """

    beta_hat: np.ndarray     # (n_paths, N + 1, d)
    p_cov: np.ndarray        # (N + 1, d, d), shared across paths
    d_nu: np.ndarray         # (n_paths, N, d)


def run_filter_batch(
    delta_R: np.ndarray,
    params: MarketParams,
    p_cov0: np.ndarray | None = None,
    beta_hat0: np.ndarray | None = None,
) -> FilterHistory:
    """Filter many paths at once.

    The gain schedule does not depend on the observations, so the error
    covariance is computed once and shared across the path axis.  Rows
    delta_R[:, i] are read in place, contiguous if delta_R is step-major.  A
    scalar p_cov0 means p_cov0 * I.
    """
    delta_R = np.asarray(delta_R, dtype=float)
    n_paths, n, d = delta_R.shape
    mats = _FilterMats(params)

    p = default_p_cov0(params) if p_cov0 is None else _as_matrix(p_cov0, d, "p_cov0")
    b0 = params.beta0 if beta_hat0 is None else np.asarray(beta_hat0, dtype=float)

    dR_steps = delta_R.transpose(1, 0, 2)
    beta_steps = np.empty((n + 1, n_paths, d))
    beta_steps[0] = b0
    p_cov = np.empty((n + 1, d, d))
    p_cov[0] = p
    nu_steps = np.empty((n, n_paths, d))

    b = np.broadcast_to(b0, (n_paths, d)).copy()
    for i in range(n):
        b, p, nu_steps[i] = _kalman_step(b, p, dR_steps[i], mats, i)
        beta_steps[i + 1] = b
        p_cov[i + 1] = p

    return FilterHistory(
        beta_hat=beta_steps.transpose(1, 0, 2), p_cov=p_cov, d_nu=nu_steps.transpose(1, 0, 2)
    )
