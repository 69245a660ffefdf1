"""Relative risk, exponential martingale, and state price density.

Given a relative risk process theta = (rho sigma)^{-1} beta_eff, the
exponential martingale

    Z_n = exp{ -sum theta* dW - 1/2 sum theta* rho theta dt }

defines the measure change; the shifted increments dW~ = dW + rho theta dt
behave like Brownian increments under the new measure.  Discounting by the
margin-adjusted factor gamma = exp{-(1 - m) r t} gives the state price
density H = gamma Z.  The optional projection zeta plays the same role for
an observable estimate theta_hat, on the shifted increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import _dot, _quad_form, _row_norm, _times
from .errors import ModelError, SingularModelError
from .params import MarketParams

__all__ = [
    "MeasureState",
    "relative_risk",
    "cap_relative_risk",
    "exponential_martingale",
    "log_martingale_step",
    "advance_log_z",
    "martingale_recursion",
    "change_measure",
    "discount_and_density",
    "zeta_step",
    "zeta_projection",
    "build_measure_state",
]


def relative_risk(beta_eff: np.ndarray, params: MarketParams) -> np.ndarray:
    """theta = (rho sigma)^{-1} beta_eff row-wise, any leading shape.

    beta_eff is typically the drift (or its estimate) net of the relative
    cost term; with zero costs it is the drift itself.  The inverse, which
    params computes once, is applied through _times; at d = 1 that is
    bit-equal to solving.
    """
    beta_eff = np.asarray(beta_eff, dtype=float)
    try:
        inv = params.rho_sigma_inv
    except np.linalg.LinAlgError:
        raise SingularModelError("rho sigma product") from None
    theta = _times(beta_eff, inv)
    if not np.isfinite(theta).all():
        raise SingularModelError("rho sigma product")
    return theta


def cap_relative_risk(theta: np.ndarray, theta_max: float = 10.0) -> tuple[np.ndarray, int]:
    """Scale rows with Euclidean norm above theta_max back onto the cap.

    A crude integrability safeguard: with the cap in force the exponential
    martingale has moments of every order, and E[Z] = 1 can be checked by
    simulation rather than assumed.  When no row is capped, theta itself
    comes back, not a copy.
    """
    theta = np.asarray(theta, dtype=float)
    norms = _row_norm(theta)
    over = norms > theta_max
    n_capped = int(np.count_nonzero(over))
    if n_capped == 0:
        return theta, 0
    scale = np.where(over, theta_max / np.where(norms > 0, norms, 1.0), 1.0)
    return theta * scale, n_capped


def log_martingale_step(theta: np.ndarray, dW: np.ndarray, params: MarketParams) -> np.ndarray:
    """Increment of log Z over one step, -theta* dW - 1/2 theta* rho theta dt, per row."""
    theta = np.asarray(theta, dtype=float)
    a = _dot(theta, np.asarray(dW, dtype=float))
    q = _quad_form(theta, params.rho) * params.delta_t
    return -a - 0.5 * q


def advance_log_z(log_z: np.ndarray, beta_eff: np.ndarray, dW: np.ndarray, params: MarketParams,
                  theta_max: float, step: int) -> tuple[np.ndarray, int]:
    """Step n of a streamed log Z, in place on a row of paths: theta, the relative
    risk of beta_eff capped at theta_max, adds log_martingale_step(theta, dW) to
    log_z.  Returns (theta, rows capped).  A Z that overflows raises ModelError
    naming Z's step, step + 1, and its first such path."""
    theta, n_capped = cap_relative_risk(relative_risk(beta_eff, params), theta_max)
    log_z += log_martingale_step(theta, dW, params)
    with np.errstate(over="ignore"):   # exp is monotone: one exp of the max tests every path
        if not np.isfinite(np.exp(log_z.max())):
            bad = int(np.argmax(~np.isfinite(np.exp(log_z))))
            raise ModelError(f"exponential martingale overflowed at step {step + 1} on path {bad}")
    return theta, n_capped


def exponential_martingale(theta: np.ndarray, dW: np.ndarray, params: MarketParams) -> np.ndarray:
    """Closed-form Z along the path; Z_0 = 1 and Z stays positive.

    theta and dW have shape (..., N, d); the result has shape (..., N + 1).
    Raises if the exponent overflows to a non-finite value, naming the step
    (and the path when there is a path axis).
    """
    incr = log_martingale_step(theta, dW, params)
    log_z = np.zeros(incr.shape[:-1] + (incr.shape[-1] + 1,))
    np.cumsum(incr, axis=-1, out=log_z[..., 1:])
    with np.errstate(over="ignore"):
        Z = np.exp(log_z)
    if not np.all(np.isfinite(Z)):
        *path, step = np.argwhere(~np.isfinite(Z))[0]
        where = f" on path {int(path[0])}" if path else ""
        raise ModelError(f"exponential martingale overflowed at step {int(step)}{where}")
    return Z


def martingale_recursion(theta: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """First-order recursion Z_{n+1} = Z_n (1 - theta* dW).

    Kept as an independent cross-check of the closed form; the two agree to
    first order in dt step by step.
    """
    a = np.einsum("...i,...i->...", np.asarray(theta, float), np.asarray(dW, float))
    Z = np.ones(a.shape[:-1] + (a.shape[-1] + 1,))
    np.cumprod(1.0 - a, axis=-1, out=Z[..., 1:])
    return Z


def change_measure(theta: np.ndarray, dW: np.ndarray, params: MarketParams) -> np.ndarray:
    """Shifted Brownian increments dW~ = dW + rho theta dt."""
    theta = np.asarray(theta, dtype=float)
    return np.asarray(dW, dtype=float) + _times(theta, params.rho.T) * params.delta_t


def discount_and_density(params: MarketParams, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjusted discount gamma and state price density H = gamma Z.

    Margin m scales the financed fraction: gamma_n = exp{-(1 - m) r t_n}.
    """
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[-1] - 1
    rate = (1.0 - params.m) * params.r
    gamma = np.exp(-rate * params.delta_t * np.arange(n + 1))
    return gamma, gamma * Z


def zeta_step(theta_hat: np.ndarray, dW_tilde: np.ndarray, params: MarketParams) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the increment of log zeta, -theta_hat* dW~ + 1/2 theta_hat* rho theta_hat dt,
    and the relative gap between the growth factor exp(u) of 1/zeta, u = -increment, and
    its Taylor polynomial through u^3 ~ dt^{3/2}, which checks the growth recursion
    d(1/zeta) = (1/zeta) theta_hat* dW~ to every order below dt^2.  An exp(u) that
    overflows or underflows gives a NaN or inf gap, not a warning."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    a = _dot(theta_hat, np.asarray(dW_tilde, dtype=float))
    q = _quad_form(theta_hat, params.rho) * params.delta_t
    u = a - 0.5 * q
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        growth = np.exp(u)
        gap = np.abs(growth - (1.0 + u + 0.5 * u * u + u * u * u / 6.0)) / growth
    return -a + 0.5 * q, gap


def zeta_projection(
    theta_hat: np.ndarray, dW_tilde: np.ndarray, params: MarketParams
) -> tuple[np.ndarray, float]:
    """Observable density factor on the shifted increments, with the largest
    zeta_step gap over the path (NaN if any is):

    zeta_n = exp{ -sum theta_hat* dW~ + 1/2 sum theta_hat* rho theta_hat dt }
    """
    incr, gaps = zeta_step(theta_hat, dW_tilde, params)
    log_zeta = np.zeros(incr.shape[:-1] + (incr.shape[-1] + 1,))
    np.cumsum(incr, axis=-1, out=log_zeta[..., 1:])
    with np.errstate(over="ignore"):
        zeta = np.exp(log_zeta)
    if not np.all(np.isfinite(zeta)):
        raise ModelError("zeta projection overflowed")
    return zeta, float(np.max(gaps)) if gaps.size else 0.0


@dataclass
class MeasureState:
    """Measure-change quantities along one path (or batch of paths)."""

    theta: np.ndarray        # (..., N, d), after any cap
    Z: np.ndarray            # (..., N + 1)
    W_tilde: np.ndarray      # (..., N + 1, d), cumulative, starts at 0
    gamma: np.ndarray        # (N + 1,)
    H: np.ndarray            # (..., N + 1)
    n_capped: int = 0


def build_measure_state(
    theta: np.ndarray,
    dW: np.ndarray,
    params: MarketParams,
    theta_max: float | None = 10.0,
) -> MeasureState:
    """Assemble Z, W~, gamma, H from a relative risk path and increments: the
    whole-path oracle of run_backtest's density and verify-measure's step loop."""
    theta = np.array(theta, dtype=float)     # the state's own copy, capped or not
    n_capped = 0
    if theta_max is not None:
        theta, n_capped = cap_relative_risk(theta, theta_max)
    Z = exponential_martingale(theta, dW, params)
    dW_t = change_measure(theta, dW, params)
    W_tilde = np.zeros(dW_t.shape[:-2] + (dW_t.shape[-2] + 1, dW_t.shape[-1]))
    np.cumsum(dW_t, axis=-2, out=W_tilde[..., 1:, :])
    gamma, H = discount_and_density(params, Z)
    return MeasureState(theta=theta, Z=Z, W_tilde=W_tilde, gamma=gamma, H=H, n_capped=n_capped)
