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

The recursion splits in two.  The gains and error covariances do not depend
on the data, so KalmanSchedule computes them once; its update() is the data
half, one step's row of paths at a time.  run_filter_batch drives it over a
whole batch for the optimality probe's shared estimate and keeps the
innovations.  run_backtest, verify-measure and duality-report iterate
estimates(), which yields each row of estimates before the step's return is
folded in, so no loop steps the filter itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import _times
from .errors import SingularModelError
from .params import MarketParams, _as_matrix

__all__ = [
    "FilterHistory",
    "KalmanSchedule",
    "default_p_cov0",
    "run_filter_batch",
]


def default_p_cov0(params: MarketParams) -> np.ndarray:
    """Weakly informative prior covariance varsigma varsigma* max(dt, 0.01)."""
    scale = max(params.delta_t, 0.01)
    return params.varsigma @ params.varsigma.T * scale


class KalmanSchedule:
    """The data-independent half of the filter, computed once for n_steps.

    The gains K_n and error covariances P_n (Joseph form) do not depend on
    the observations (Anderson & Moore 1979), so one schedule serves every
    path.  update() is the data half: it folds one step's row of return
    increments into a row of estimates; estimates() runs it down a batch.
    A scalar p_cov0 means p_cov0 * I.
    """

    def __init__(self, params: MarketParams, n_steps: int, p_cov0=None):
        if not params.sigma_invertible():
            raise SingularModelError("volatility matrix sigma")
        d, dt = params.d, params.delta_t
        self.dt, self.beta0 = dt, params.beta0
        self.A = A = np.eye(d) + params.alpha * dt
        self.sigma_inv = np.linalg.inv(params.sigma)
        Q = params.varsigma @ params.varsigma.T * dt
        R_obs = params.noise_cov()
        I = np.eye(d)

        p = default_p_cov0(params) if p_cov0 is None else _as_matrix(p_cov0, d, "p_cov0")
        self.p_cov = np.empty((n_steps + 1, d, d))      # P_n, shared across paths
        self.p_cov[0] = p
        self.gains = []
        for step in range(n_steps):
            S = p * dt * dt + R_obs
            try:
                gain = dt * np.linalg.solve(S, p).T       # K = P H* S^{-1}, H = dt I
            except np.linalg.LinAlgError:
                raise SingularModelError("innovation covariance", step) from None
            if not np.all(np.isfinite(gain)):
                raise SingularModelError("innovation covariance", step)
            ikh = I - gain * dt
            p_post = ikh @ p @ ikh.T + gain @ R_obs @ gain.T   # Joseph form
            p = A @ p_post @ A.T + Q
            p = 0.5 * (p + p.T)
            self.gains.append(gain)
            self.p_cov[step + 1] = p

    def update(self, beta_hat: np.ndarray, delta_R: np.ndarray, step: int):
        """Update with row `step` of returns, then predict: (beta_hat_{n+1}, residual).

        beta_hat and delta_R are (n_paths, d) rows; the residual is dR_n - beta_hat_n dt.
        """
        resid = delta_R - beta_hat * self.dt
        return _times(beta_hat + _times(resid, self.gains[step]), self.A), resid

    def estimates(self, R: np.ndarray):
        """Yield beta_hat_0 .. beta_hat_{N-1} for path-major (n_paths, N + 1, d)
        returns R, from beta0: row n comes before R[:, n + 1] - R[:, n] is
        folded in.  Each row is a new read-only array, so a consumer may keep
        past rows and share the current one."""
        b = np.broadcast_to(self.beta0, (R.shape[0], R.shape[2])).copy()
        for i in range(R.shape[1] - 1):
            b.flags.writeable = False
            yield b
            b, _ = self.update(b, R[:, i + 1] - R[:, i], i)


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
) -> FilterHistory:
    """Filter many paths at once from params.beta0: one KalmanSchedule and
    one update per step.  Rows delta_R[:, i] are read in place, contiguous if
    delta_R is step-major.
    """
    delta_R = np.asarray(delta_R, dtype=float)
    n_paths, n, d = delta_R.shape
    ks = KalmanSchedule(params, n, p_cov0)

    dR_steps = delta_R.transpose(1, 0, 2)
    beta_steps = np.empty((n + 1, n_paths, d))
    beta_steps[0] = params.beta0
    nu_steps = np.empty((n, n_paths, d))

    b = np.broadcast_to(params.beta0, (n_paths, d)).copy()
    for i in range(n):
        b, resid = ks.update(b, dR_steps[i], i)
        _times(resid, ks.sigma_inv, out=nu_steps[i])
        beta_steps[i + 1] = b

    return FilterHistory(
        beta_hat=beta_steps.transpose(1, 0, 2), p_cov=ks.p_cov, d_nu=nu_steps.transpose(1, 0, 2)
    )
