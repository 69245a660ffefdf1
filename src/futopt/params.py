"""Market parameter container and validation.

All model components share one parameter object describing a d-asset futures
market on an equidistant time grid t_n = t0 + n * delta_t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NotPositiveDefiniteError


def cholesky_pd(mat: np.ndarray, name: str) -> np.ndarray:
    """Cholesky factor of a symmetric positive definite matrix.

    On failure, identifies the order of the first non-positive leading
    principal minor so the caller knows which sub-block is at fault.
    """
    mat = np.asarray(mat, dtype=float)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        for k in range(1, mat.shape[0] + 1):
            sign, _ = np.linalg.slogdet(mat[:k, :k])
            if sign <= 0:
                raise NotPositiveDefiniteError(name, k) from None
        # Cholesky failed but every minor looked positive: borderline case.
        raise NotPositiveDefiniteError(name, mat.shape[0]) from None


def _as_matrix(value, d: int, name: str) -> np.ndarray:
    """Coerce scalars to scalar * I and validate the (d, d) shape."""
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):       # before promotion: inf * eye(d) warns on 0 * inf
        raise ModelError(f"{name} must be finite")
    if arr.ndim == 0:
        arr = float(arr) * np.eye(d)
    if arr.shape != (d, d):
        raise ModelError(f"{name} must have shape ({d}, {d}), got {arr.shape}")
    return arr


def _as_vector(value, d: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(d, float(arr))
    if arr.shape != (d,):
        raise ModelError(f"{name} must have shape ({d},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class MarketParams:
    """Static description of the simulated futures market.

    Attributes
    ----------
    d : number of assets.
    n_steps : number of time steps N; the grid has N + 1 points.
    delta_t : grid spacing (in years).
    sigma : (d, d) volatility matrix of the return process.
    rho : (d, d) instantaneous correlation of the driving noise.
    alpha : (d, d) mean-reversion matrix of the latent drift.
    varsigma : (d, d) volatility matrix of the latent drift.
    f : (d,) contract unit values (currency per futures point).
    c_spread : (d,) round-trip slippage per contract, in price points.
    m : margin fraction in [0, 1].
    r : money-market rate earned on free margin.
    k : (d,) gearing applied when sizing positions from weights.
    F0 : (d,) initial futures prices, strictly positive.
    beta0 : (d,) initial drift, treated as a deterministic parameter.
    """

    d: int
    n_steps: int
    delta_t: float
    sigma: np.ndarray
    rho: np.ndarray
    alpha: np.ndarray
    varsigma: np.ndarray
    f: np.ndarray
    c_spread: np.ndarray
    m: float
    r: float
    k: np.ndarray
    F0: np.ndarray
    beta0: np.ndarray
    t0: float = 0.0
    pos_floor: float = 1e-8
    guard_warn_fraction: float = 0.01

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise ModelError("d must be a positive integer")
        if int(self.n_steps) < 1:
            raise ModelError("n_steps must be a positive integer")
        if not (self.delta_t > 0 and np.isfinite(self.delta_t)):
            raise ModelError("delta_t must be positive")
        if not (0.0 <= self.m <= 1.0):
            raise ModelError("m must lie in [0,1]")
        if not np.isfinite(self.r):
            raise ModelError("r must be finite")
        if not (0 < self.pos_floor < 1):
            raise ModelError("pos_floor must lie in (0, 1)")

        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "delta_t", float(self.delta_t))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "t0", float(self.t0))

        for name in ("sigma", "rho", "alpha", "varsigma"):
            object.__setattr__(self, name, _as_matrix(getattr(self, name), d, name))
        for name in ("f", "c_spread", "k", "F0", "beta0"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), d, name))

        rho = self.rho
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ModelError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise ModelError("rho must have unit diagonal")
        # Raises NotPositiveDefiniteError naming the offending minor.
        cholesky_pd(rho, "rho")

        if np.any(self.F0 <= 0):
            raise ModelError("F0 must be strictly positive")
        if np.any(self.f <= 0):
            raise ModelError("f must be strictly positive")
        if np.any(self.k <= 0):
            raise ModelError("k must be strictly positive")
        if np.any(self.c_spread < 0):
            raise ModelError("c_spread must be nonnegative")

        for name in ("sigma", "rho", "alpha", "varsigma", "f", "c_spread", "k", "F0", "beta0"):
            getattr(self, name).flags.writeable = False

    # -- derived quantities -------------------------------------------------

    @property
    def horizon(self) -> float:
        """Total time span N * delta_t."""
        return self.n_steps * self.delta_t

    @property
    def t_grid(self) -> np.ndarray:
        """Grid times t0, t0 + dt, ..., t0 + N dt."""
        return self.t0 + self.delta_t * np.arange(self.n_steps + 1)

    def rho_cholesky(self) -> np.ndarray:
        return cholesky_pd(self.rho, "rho")

    def noise_cov(self) -> np.ndarray:
        """Covariance of one return-noise increment, sigma rho sigma* dt."""
        return self.sigma @ self.rho @ self.sigma.T * self.delta_t

    def sigma_invertible(self) -> bool:
        return np.linalg.matrix_rank(self.sigma) == self.d

    def with_updates(self, **kwargs) -> "MarketParams":
        """A copy with some fields replaced (re-runs validation)."""
        from dataclasses import replace

        return replace(self, **kwargs)
