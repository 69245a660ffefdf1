"""Trading policies for the backtest engine.

A strategy is a causal map from observables to portfolio weights.  The
observation bundle deliberately exposes only what a real trader sees:
prices, the filtered drift estimate, the previous position, and current
wealth.  The latent drift and the driving noise never cross this interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import _times
from .errors import ModelError
from .params import MarketParams
from .trading import cost_term, log_optimal_factor, payoff_transform

__all__ = [
    "StrategyObs",
    "Strategy",
    "ZeroStrategy",
    "ConstantWeightStrategy",
    "RandomBoundedStrategy",
    "LogOptimalStrategy",
    "ScaledStrategy",
    "LaggedEstimateStrategy",
    "MaskedStrategy",
]


@dataclass
class StrategyObs:
    """What a policy may look at when choosing weights for step n.

    beta_hat is the drift estimate conditioned on returns observed strictly
    before t_n (None when the market volatility is singular and no filter
    runs).  All arrays carry a leading path axis.
    """

    n: int
    t: float
    F: np.ndarray          # (n_paths, d)
    C: np.ndarray          # (n_paths, d)
    X: np.ndarray          # (n_paths,)
    P_prev: np.ndarray     # (n_paths, d)
    beta_hat: np.ndarray | None


class Strategy:
    """Base class; policies override weights() and optionally reset()."""

    def reset(self, n_paths: int, params: MarketParams) -> None:
        """Called once before a backtest run."""

    def weights(self, obs: StrategyObs) -> np.ndarray:
        raise NotImplementedError


class ZeroStrategy(Strategy):
    """Stay in cash."""

    def weights(self, obs: StrategyObs) -> np.ndarray:
        return np.zeros_like(obs.F)


class ConstantWeightStrategy(Strategy):
    def __init__(self, pi):
        self.pi = np.asarray(pi, dtype=float)

    def weights(self, obs: StrategyObs) -> np.ndarray:
        return np.broadcast_to(self.pi, obs.F.shape).copy()


class RandomBoundedStrategy(Strategy):
    """Weights drawn uniformly from [-bound, bound], independent of the path.

    Uses its own seeded generator, so the policy is causal (the draw for
    step n never peeks at anything) and reproducible.
    """

    def __init__(self, bound: float = 1.0, seed: int = 0):
        self.bound = float(bound)
        self.seed = int(seed)
        self._rng = None

    def reset(self, n_paths: int, params: MarketParams) -> None:
        self._rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def weights(self, obs: StrategyObs) -> np.ndarray:
        if self._rng is None:
            self.reset(obs.F.shape[0], None)
        return self._rng.uniform(-self.bound, self.bound, size=obs.F.shape)


class LogOptimalStrategy(Strategy):
    """Growth-optimal weights from the filtered drift estimate.

    mode:
      "zero_cost"      pi = (sigma* rho sigma)^{-1} beta_hat
      "soft_threshold" cost-aware, trades only when the estimated edge
                       clears the estimated slippage (default)
      "literal"        cost-aware with the plain difference beta_hat - c_hat

    The cost-aware modes estimate slippage at the zero-cost target position,
    then map the transformed signal to weights again; reset() computes the
    inverse (sigma* rho sigma)^{-1} once per run.  Components whose target
    position is too small to anchor a relative cost are parked at zero
    weight, consistent with the cost estimate diverging there.
    """

    def __init__(self, mode: str = "soft_threshold", literal_product: bool = False):
        if mode not in ("zero_cost", "soft_threshold", "literal"):
            raise ModelError(f"unknown log-optimal mode: {mode!r}")
        self.mode = mode
        self.literal_product = literal_product
        self._params = None
        self._factor = None

    def reset(self, n_paths: int, params: MarketParams) -> None:
        self._params = params
        self._factor = log_optimal_factor(params, self.literal_product)

    def weights(self, obs: StrategyObs) -> np.ndarray:
        if obs.beta_hat is None:
            raise ModelError("log-optimal strategy needs a drift estimate")
        params = self._params
        pi_zc = _times(obs.beta_hat, self._factor)
        if self.mode == "zero_cost":
            return pi_zc

        with np.errstate(over="ignore"):   # an infinite target gives NaN weights, which the backtest names
            P_star = obs.X[..., None] * params.k * pi_zc / obs.C
        c_hat, flagged = cost_term(P_star, obs.P_prev, obs.C, params)
        if not flagged.any():   # the np.where calls would return their inputs' bits
            return _times(payoff_transform(obs.beta_hat, c_hat, self.mode), self._factor)
        upsilon = payoff_transform(obs.beta_hat, np.where(flagged, 0.0, c_hat), self.mode)
        return _times(np.where(flagged, 0.0, upsilon), self._factor)


class ScaledStrategy(Strategy):
    """A wrapped policy with all weights multiplied by a constant."""

    def __init__(self, inner: Strategy, factor: float):
        self.inner = inner
        self.factor = float(factor)

    def reset(self, n_paths, params):
        self.inner.reset(n_paths, params)

    def weights(self, obs):
        return self.factor * self.inner.weights(obs)


class LaggedEstimateStrategy(Strategy):
    """Feeds the wrapped policy a drift estimate delayed by `lag` steps."""

    def __init__(self, inner: Strategy, lag: int = 1):
        if lag < 0:
            raise ModelError("lag must be nonnegative")
        self.inner = inner
        self.lag = int(lag)
        self._history: list[np.ndarray] = []

    def reset(self, n_paths, params):
        self._history = []
        self.inner.reset(n_paths, params)

    def weights(self, obs):
        if obs.beta_hat is not None:
            self._history.append(obs.beta_hat)
        idx = max(len(self._history) - 1 - self.lag, 0)
        lagged = self._history[idx] if self._history else obs.beta_hat
        stale = StrategyObs(
            n=obs.n, t=obs.t, F=obs.F, C=obs.C, X=obs.X, P_prev=obs.P_prev, beta_hat=lagged,
        )
        return self.inner.weights(stale)


class MaskedStrategy(Strategy):
    """Zeroes the weights of selected components of the wrapped policy."""

    def __init__(self, inner: Strategy, keep_mask):
        self.inner = inner
        self.keep = np.asarray(keep_mask, dtype=bool)

    def reset(self, n_paths, params):
        self.inner.reset(n_paths, params)

    def weights(self, obs):
        return self.inner.weights(obs) * self.keep
