"""Simulation of futures prices, returns, and the latent drift.

Price dynamics follow a guarded multiplicative Euler scheme,

    F_{n+1} = F_n * max(1 + beta_n dt + (sigma dW)_n, floor)

so prices stay strictly positive, and the cumulative return process R
accumulates exactly dR = dF / F, keeping the price and return filtrations
interchangeable.  The latent drift follows a linear recursion

    beta_{n+1} = beta_n + alpha beta_n dt + varsigma dW2_n

driven by a second, independent Brownian increment stream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelError
from .params import MarketParams

__all__ = [
    "PathBatch",
    "correlated_increments",
    "simulate_drift",
    "simulate_batch",
    "build_batch",
    "returns_from_prices",
    "prices_from_returns",
    "read_path_csv",
]


@dataclass
class PathBatch:
    """Market paths sharing one grid t_0 .. t_N; a single path is a batch of one.

    F, R and beta have N + 1 rows per path, the increments dW, dW2 have N.
    The latent fields (beta, dW, dW2, guard_events) are None for paths
    ingested from price data alone.
    """

    t_grid: np.ndarray
    F: np.ndarray                             # (n_paths, N + 1, d)
    R: np.ndarray
    beta: np.ndarray | None = None
    dW: np.ndarray | None = None              # (n_paths, N, d)
    dW2: np.ndarray | None = None
    guard_events: np.ndarray | None = None    # (n_paths,)

    @property
    def n_paths(self) -> int:
        return self.F.shape[0]

    @property
    def n_steps(self) -> int:
        return self.F.shape[1] - 1

    @property
    def d(self) -> int:
        return self.F.shape[2]

    def delta_R(self) -> np.ndarray:
        return np.diff(self.R, axis=1)

    def to_csv(self, path: str | Path, i: int) -> None:
        """Write path i as (time, F_1..F_d, R_1..R_d, beta_1..beta_d) rows."""
        d = self.d
        header = (
            ["time"]
            + [f"F_{j + 1}" for j in range(d)]
            + [f"R_{j + 1}" for j in range(d)]
            + [f"beta_{j + 1}" for j in range(d)]
        )
        F, R = self.F[i], self.R[i]
        beta = None if self.beta is None else self.beta[i]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for n in range(self.n_steps + 1):
                row = [repr(float(self.t_grid[n]))]
                row += [repr(float(v)) for v in F[n]]
                row += [repr(float(v)) for v in R[n]]
                if beta is not None:
                    row += [repr(float(v)) for v in beta[n]]
                else:
                    row += [""] * d
                writer.writerow(row)


# -- increment generation ---------------------------------------------------


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    # Philox is counter based, so spawned sub-streams are cheap and disjoint.
    return np.random.Generator(np.random.Philox(seed_seq))


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def correlated_increments(params: MarketParams, seed, n_steps: int | None = None) -> np.ndarray:
    """Draw (N, d) Brownian increments with E[dW dW*] = rho dt.

    Deterministic given the seed.  Uses the Cholesky factor of rho; a
    non-positive-definite rho raises with the offending leading minor.
    """
    n = params.n_steps if n_steps is None else int(n_steps)
    if n < 1:
        raise ModelError("n_steps must be a positive integer")
    L = params.rho_cholesky()
    z = _generator(_seed_seq(seed)).standard_normal((n, params.d))
    return np.sqrt(params.delta_t) * (z @ L.T)


def _independent_increments(params, seed_seq, shape) -> np.ndarray:
    z = _generator(seed_seq).standard_normal(shape)
    return np.sqrt(params.delta_t) * z


def simulate_drift(params: MarketParams, dW2: np.ndarray) -> np.ndarray:
    """Latent drift path from given independent increments.

    dW2 may be (N, d) or (n_paths, N, d); output gains one grid row.
    """
    dW2 = np.asarray(dW2, dtype=float)
    n = dW2.shape[-2]
    A = np.eye(params.d) + params.alpha * params.delta_t
    shock = dW2 @ params.varsigma.T
    beta = np.empty(dW2.shape[:-2] + (n + 1, params.d))
    beta[..., 0, :] = params.beta0
    for i in range(n):
        beta[..., i + 1, :] = beta[..., i, :] @ A.T + shock[..., i, :]
    return beta


def build_batch(params: MarketParams, dW: np.ndarray, dW2: np.ndarray) -> PathBatch:
    """Deterministically assemble paths from (n_paths, N, d) increment arrays."""
    n_paths, n, d = dW.shape
    dt = params.delta_t
    beta = simulate_drift(params, dW2)

    noise = dW @ params.sigma.T
    factor = 1.0 + beta[:, :n, :] * dt + noise
    guarded = np.maximum(factor, params.pos_floor)
    guard_events = (factor < params.pos_floor).sum(axis=(1, 2))

    F = np.empty((n_paths, n + 1, d))
    F[:, 0, :] = params.F0
    F[:, 1:, :] = params.F0 * np.cumprod(guarded, axis=1)

    dR = guarded - 1.0
    R = np.zeros((n_paths, n + 1, d))
    np.cumsum(dR, axis=1, out=R[:, 1:, :])

    return PathBatch(
        t_grid=params.t_grid[: n + 1],
        F=F,
        R=R,
        beta=beta,
        dW=dW,
        dW2=dW2,
        guard_events=guard_events,
    )


def simulate_batch(params: MarketParams, seed, n_paths: int) -> PathBatch:
    """Simulate n_paths independent paths from one seed.

    The price noise and the drift noise come from disjoint sub-streams of a
    single counter-based generator, so runs are reproducible bit for bit.
    The sub-streams are the first two children of the seed sequence, derived
    without spawn(), which would advance the caller's spawn counter.
    """
    if n_paths < 1:
        raise ModelError("n_paths must be a positive integer")
    ss = _seed_seq(seed)
    ss_w, ss_w2 = (
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)
        for k in range(2)
    )
    n, d = params.n_steps, params.d
    L = params.rho_cholesky()
    z = _generator(ss_w).standard_normal((n_paths, n, d))
    dW = np.sqrt(params.delta_t) * (z @ L.T)
    dW2 = _independent_increments(params, ss_w2, (n_paths, n, d))
    return build_batch(params, dW, dW2)


# -- price / return conversions --------------------------------------------


def returns_from_prices(F: np.ndarray) -> np.ndarray:
    """Cumulative return process with R_0 = 0 and dR = dF / F."""
    F = np.asarray(F, dtype=float)
    dR = np.diff(F, axis=-2) / F[..., :-1, :]
    R = np.zeros_like(F)
    np.cumsum(dR, axis=-2, out=R[..., 1:, :])
    return R


def prices_from_returns(F0: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Invert returns_from_prices: F_n = F0 * prod(1 + dR)."""
    R = np.asarray(R, dtype=float)
    dR = np.diff(R, axis=-2)
    F = np.empty_like(R)
    F[..., 0, :] = F0
    F[..., 1:, :] = F0 * np.cumprod(1.0 + dR, axis=-2)
    return F


def read_path_csv(path: str | Path) -> PathBatch:
    """Read a path written by PathBatch.to_csv, as a batch of one."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    d = sum(1 for h in header if h.startswith("F_"))
    t = np.array([float(r[0]) for r in rows])
    F = np.array([[float(v) for v in r[1 : 1 + d]] for r in rows])
    R = np.array([[float(v) for v in r[1 + d : 1 + 2 * d]] for r in rows])
    beta_cells = [r[1 + 2 * d : 1 + 3 * d] for r in rows]
    if all(all(c != "" for c in row) for row in beta_cells):
        beta = np.array([[[float(v) for v in row] for row in beta_cells]])
    else:
        beta = None
    return PathBatch(t_grid=t, F=F[None], R=R[None], beta=beta)
