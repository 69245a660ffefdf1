"""Simulation of futures prices, returns, and the latent drift.

Price dynamics follow a guarded multiplicative Euler scheme,

    F_{n+1} = F_n * max(1 + beta_n dt + (sigma dW)_n, floor)

so prices stay strictly positive, and the cumulative return process R
accumulates exactly dR = dF / F, keeping the price and return filtrations
interchangeable.  The latent drift follows a linear recursion

    beta_{n+1} = beta_n + alpha beta_n dt + varsigma dW2_n

driven by a second, independent Brownian stream that a batch does not keep.

Each floored step (counted in guard_events) multiplies F by pos_floor, 1e-8
by default, so about 40 of them underflow a price to 0.0; contract_price
then raises ModelError, and the CLI exits 2.  Batches are built a block of
steps at a time into step-major (N + 1, n_paths, d) buffers, with running
sums and products row by row.  Each stream is drawn path-major,
_COPY_PATHS paths at a time into a 0.5 MB buffer, and copied from there
into its step-major buffer before it is scaled, so no path-sized draw
buffer is allocated; consecutive blocks continue one stream, so the bits
are those of one whole-array draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import _times
from .errors import ModelError
from .params import MarketParams

__all__ = [
    "PathBatch",
    "simulate_drift",
    "simulate_batch",
    "build_batch",
    "returns_from_prices",
]


@dataclass
class PathBatch:
    """Market paths sharing one grid t_0 .. t_N; a single path is a batch of one.

    F, R and beta have N + 1 rows per path, the price increments dW have N;
    dW2 is always None: the price noise overwrites the drift's increments
    once beta is built.  The latent fields (beta, dW, guard_events) are None
    for paths ingested from price data alone.  A built batch is stored
    step-major: each array is an (n_paths, ..., d) view of an
    (N + 1 | N, n_paths, d) buffer, so a step's row F[:, n] is contiguous
    and a path F[i] is strided.
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
        return np.diff(self.R, axis=1)      # in R's memory order: step-major if built here


# -- increment generation ---------------------------------------------------


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    # Philox is counter based, so spawned sub-streams are cheap and disjoint.
    return np.random.Generator(np.random.Philox(seed_seq))


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _step_blocks(n: int, size: int) -> list[slice]:
    """Blocks of the step axis, about 2**14 numbers and at least two steps each.

    Whole-block operations keep the numpy calls per step few on a narrow batch.
    """
    k = max(1, min(n // 2, size >> 14))
    return [slice(j * n // k, (j + 1) * n // k) for j in range(k)]


#: Paths per block of a noise draw: 256 paths x 252 steps is 0.5 MB.
_COPY_PATHS = 256


def _draw_step_major(gen: np.random.Generator, out: np.ndarray) -> None:
    """Fill a step-major (N, n_paths, d) out with gen's path-major standard
    normal stream, drawn _COPY_PATHS paths at a time into one buffer and
    copied from there.  Consecutive draws continue one stream, so the bits
    are those of one whole-array draw, transposed."""
    n, n_paths, d = out.shape
    buf = np.empty((min(_COPY_PATHS, n_paths), n, d))
    for j in range(0, n_paths, _COPY_PATHS):
        block = gen.standard_normal(out=buf[: min(_COPY_PATHS, n_paths - j)])
        np.copyto(out[:, j : j + len(block)], block.transpose(1, 0, 2))


def simulate_drift(params: MarketParams, dW2: np.ndarray) -> np.ndarray:
    """Latent drift path from given independent increments.

    dW2 may be (N, d) or (n_paths, N, d); output gains one grid row and is
    a view of a step-major buffer.
    """
    steps = np.moveaxis(np.asarray(dW2, dtype=float), -2, 0)
    A = np.eye(params.d) + params.alpha * params.delta_t
    beta = np.empty((steps.shape[0] + 1,) + steps.shape[1:])
    beta[0] = params.beta0
    for s in _step_blocks(steps.shape[0], steps.size):
        for i, shock in enumerate(_times(steps[s], params.varsigma), s.start):
            _times(beta[i], A, out=beta[i + 1])
            beta[i + 1] += shock
    return np.moveaxis(beta, 0, -2)


def build_batch(params: MarketParams, dW: np.ndarray, beta: np.ndarray) -> PathBatch:
    """Assemble paths from (n_paths, N, d) price increments and the drift beta.

    One pass over the steps: g_n = max(1 + beta_n dt + (sigma dW)_n, floor),
    F_{n+1} = F0 g_0 ... g_n and R_{n+1} = R_n + (g_n - 1), the sequential
    operations of cumprod and cumsum, so the bits are a whole-array build's.
    """
    n_paths, n, d = dW.shape
    dt, floor = params.delta_t, params.pos_floor
    beta_s, dW_s = beta.transpose(1, 0, 2), dW.transpose(1, 0, 2)

    F, R = np.empty((n + 1, n_paths, d)), np.zeros((n + 1, n_paths, d))
    F[0] = params.F0
    prod = np.ones((n_paths, d))          # 1 * g_0 and 0 + (g_0 - 1) are exact
    guard_events = np.zeros(n_paths, dtype=int)
    for s in _step_blocks(n, dW.size):
        g = 1.0 + beta_s[s] * dt + _times(dW_s[s], params.sigma)
        guard_events += np.count_nonzero(g < floor, axis=(0, 2))
        np.maximum(g, floor, out=g)
        dR = g - 1.0
        for j, i in enumerate(range(s.start, s.stop)):
            prod = np.multiply(prod, g[j], out=g[j])     # g[j] := g_0 ... g_i
            np.add(R[i], dR[j], out=R[i + 1])
        np.multiply(params.F0, g, out=F[s.start + 1 : s.stop + 1])

    return PathBatch(
        t_grid=params.t_grid[: n + 1],
        F=F.transpose(1, 0, 2),
        R=R.transpose(1, 0, 2),
        beta=beta,
        dW=dW,
        guard_events=guard_events,
    )


def simulate_batch(params: MarketParams, seed, n_paths: int) -> PathBatch:
    """Simulate n_paths independent paths from one seed.

    The drift noise and then the price noise are drawn from disjoint
    sub-streams of a single counter-based generator, so runs are reproducible
    bit for bit.  The sub-streams are the first two children of the seed
    sequence, derived without spawn(), which would advance the caller's spawn
    counter.  Each stream is path-major, which fixes its bits, and is drawn a
    block of paths at a time and copied step-major into dW, where the price
    noise overwrites the drift noise once beta is built.
    With varsigma = 0 the drift noise would only be multiplied by zero, so it
    is not drawn: beta is built from a zero shock.
    """
    if n_paths < 1:
        raise ModelError("n_paths must be a positive integer")
    ss = _seed_seq(seed)
    ss_w, ss_w2 = (
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)
        for k in range(2)
    )
    n, d = params.n_steps, params.d
    sqrt_dt, L = np.sqrt(params.delta_t), params.rho_cholesky()
    dW = np.empty((n, n_paths, d))
    if np.any(params.varsigma != 0):
        _draw_step_major(_generator(ss_w2), dW)
        beta = simulate_drift(params, np.multiply(dW, sqrt_dt, out=dW).transpose(1, 0, 2))
    else:
        beta = simulate_drift(params, np.broadcast_to(0.0, (n_paths, n, d)))
    _draw_step_major(_generator(ss_w), dW)
    for s in _step_blocks(n, dW.size):
        np.multiply(sqrt_dt, _times(dW[s], L), out=dW[s])
    return build_batch(params, dW.transpose(1, 0, 2), beta)


# -- price / return conversions --------------------------------------------


def returns_from_prices(F: np.ndarray) -> np.ndarray:
    """Cumulative return process with R_0 = 0 and dR = dF / F."""
    F = np.asarray(F, dtype=float)
    dR = np.diff(F, axis=-2) / F[..., :-1, :]
    R = np.zeros_like(F)
    np.cumsum(dR, axis=-2, out=R[..., 1:, :])
    return R
