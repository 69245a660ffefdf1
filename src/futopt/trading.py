"""Contract-level mechanics: prices, positions, slippage, optimal weights.

Futures positions are counted in contracts.  A contract on asset i trades at
C_i = f_i F_i where f_i is the fixed unit value of one futures point.  The
only trading friction is slippage: a trade of |dP| contracts pays half the
spread c per contract, f c |dP| / 2 in cash.  Expressed relative to position
value and step length that cash cost becomes

    c_tilde_i = c_i f_i |dP_i| / (2 P_i C_i dt)

which carries the sign of the current position and scales like 1 / dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, SingularModelError
from .params import MarketParams

__all__ = [
    "PositionBook",
    "contract_price",
    "position_from_weights",
    "cost_term",
    "payoff_transform",
    "log_optimal_factor",
]

#: Positions smaller than this many contracts cannot anchor a relative cost.
ZERO_POSITION_THRESHOLD = 1.0


def contract_price(F: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Cash price of one contract per asset, C = f * F (elementwise)."""
    F = np.asarray(F, dtype=float)
    f = np.asarray(f, dtype=float)
    if (F <= 0).any():
        raise ModelError("futures prices must be strictly positive")
    if (f <= 0).any():
        raise ModelError("contract unit values must be strictly positive")
    return f * F


def position_from_weights(
    X,
    pi: np.ndarray,
    C: np.ndarray,
    k: np.ndarray,
    cap: np.ndarray | None = None,
    integer_contracts: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Contracts held for portfolio weights pi at wealth X.

    P_i = X k_i pi_i / C_i, clipped to +-cap_i when a cap (for instance the
    top of the order book) is given, then optionally rounded toward zero to
    whole contracts.  Returns (P, clipped) where clipped marks components
    that hit the cap.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite P is the caller's to name
        P = (X[..., None] if X.ndim else X) * np.asarray(k, float) * np.asarray(pi, float)
        P = P / np.asarray(C, dtype=float)
    if cap is not None:
        cap = np.asarray(cap, dtype=float)
        if np.any(cap < 0):
            raise ModelError("position caps must be nonnegative")
        clipped = np.abs(P) > cap
        P = np.clip(P, -cap, cap)
    else:
        clipped = np.zeros(np.shape(P), dtype=bool)
    if integer_contracts:
        P = np.trunc(P)
    return P, clipped


def cost_term(
    P_now: np.ndarray,
    P_prev: np.ndarray,
    C: np.ndarray,
    params: MarketParams,
    threshold: float = ZERO_POSITION_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Relative slippage cost of the trade P_prev -> P_now.

    Returns (c_tilde, flagged).  A zero trade costs nothing regardless of
    the position.  Components whose current position is below the threshold
    (in absolute contracts) while the trade is not cannot express the cost
    relative to the position; they get NaN and a raised flag so the caller
    can charge the cash amount directly.
    """
    P_now = np.asarray(P_now, dtype=float)
    return _relative_cost(np.abs(P_now - np.asarray(P_prev, dtype=float)), P_now, C, params, threshold)


def _relative_cost(dP, P_now, C, params: MarketParams, threshold: float = ZERO_POSITION_THRESHOLD):
    """cost_term from the traded size dP = |P_now - P_prev|, for a caller
    that has it already.  A mask that selects nothing is not applied: the
    np.where would return c_tilde's own bits."""
    trade = dP > 0
    flagged = trade & (np.abs(P_now) < threshold)

    denom = 2.0 * P_now * np.asarray(C, float) * params.delta_t
    with np.errstate(divide="ignore", invalid="ignore"):
        c_tilde = params.c_spread * params.f * dP / denom
    if not trade.all():
        c_tilde = np.where(trade, c_tilde, 0.0)
    if flagged.any():
        c_tilde = np.where(flagged, np.nan, c_tilde)
    return c_tilde, flagged


def payoff_transform(
    beta_hat: np.ndarray, c_hat: np.ndarray, mode: str = "soft_threshold"
) -> np.ndarray:
    """Cost-adjusted drift signal feeding the optimal weights.

    "literal" evaluates max(b - c, 0) + min(b - c, 0) verbatim, which is
    algebraically b - c.  "soft_threshold" (default) keeps a component only
    when the estimated edge clears the estimated cost,

        sign(b) * max(|b| - |c|, 0),

    matching the feasibility reading of the cost adjustment: positions whose
    drift cannot pay for their own slippage are parked at zero.
    """
    b = np.asarray(beta_hat, dtype=float)
    c = np.asarray(c_hat, dtype=float)
    if mode == "literal":
        diff = b - c
        return np.maximum(diff, 0.0) + np.minimum(diff, 0.0)
    if mode == "soft_threshold":
        return np.sign(b) * np.maximum(np.abs(b) - np.abs(c), 0.0)
    raise ModelError(f"unknown payoff transform mode: {mode!r}")


def log_optimal_factor(params: MarketParams, literal_product: bool = False) -> np.ndarray:
    """The inverse (sigma* rho sigma)^{-1} mapping a drift signal to weights.

    literal_product=True inverts sigma rho sigma without the transpose; the
    two coincide whenever sigma commutes with rho (scalar or symmetric sigma).
    """
    left = params.sigma if literal_product else params.sigma.T
    try:
        return np.linalg.inv(left @ params.rho @ params.sigma)
    except np.linalg.LinAlgError:
        raise SingularModelError("sigma rho sigma product") from None


@dataclass
class PositionBook:
    """Per-step record of positions and trading costs along each path."""

    C: np.ndarray            # (n_paths, N, d) contract prices at step start
    pi: np.ndarray           # (n_paths, N, d) weights as traded
    P: np.ndarray            # (n_paths, N, d) positions in contracts
    trade: np.ndarray        # (n_paths, N, d) signed contract changes
    c_tilde: np.ndarray      # (n_paths, N, d) relative cost, NaN where flagged
    cash_cost: np.ndarray    # (n_paths, N, d) cash slippage paid
    clipped: np.ndarray      # (n_paths, N, d) bool
