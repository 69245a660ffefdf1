import tracemalloc

import numpy as np
import pytest

from futopt import MarketParams, ModelError


@pytest.fixture
def p1():
    """Daily one-asset market with a mean-reverting drift."""
    return MarketParams(
        d=1, n_steps=252, delta_t=1.0 / 252,
        sigma=0.2, rho=1.0, alpha=-0.5, varsigma=0.1,
        f=50.0, c_spread=0.001, m=0.2, r=0.03, k=1.0,
        F0=100.0, beta0=0.08,
    )


@pytest.fixture
def p2():
    """Two correlated assets, scalar volatility matrix (sigma = s I)."""
    return MarketParams(
        d=2, n_steps=252, delta_t=1.0 / 252,
        sigma=0.25, rho=np.array([[1.0, 0.3], [0.3, 1.0]]),
        alpha=np.diag([-0.5, -1.0]), varsigma=0.1,
        f=np.array([50.0, 1000.0]), c_spread=0.0, m=0.0, r=0.0, k=1.0,
        F0=np.array([100.0, 2.0]), beta0=np.array([0.08, -0.04]),
    )


def mc_stderr(samples):
    samples = np.asarray(samples, dtype=float)
    return samples.std(ddof=1) / np.sqrt(samples.size)


def traced_peaks(run, p, n_paths=4096):
    """Peak traced memory of run(n, mark) at n = n_paths, in units of one
    (n_paths, N + 1, d) float array: one peak per mark() call, the last
    for the rest of the run.  A first pass at 8 paths warms up lazy imports
    and caches."""
    unit = n_paths * (p.n_steps + 1) * p.d * 8
    for n in (8, n_paths):
        peaks = []

        def mark():
            peaks.append(tracemalloc.get_traced_memory()[1] / unit)
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            run(n, mark)
            mark()
        finally:
            tracemalloc.stop()
    return peaks


def bulk_draws(p, seed, n_paths):
    """Path-major (dW, dW2) on simulate_batch's two Philox sub-streams: the
    price increments it keeps and the drift increments it frees once beta is
    built.  The first k paths of a draw do not depend on n_paths >= k."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    ss_w, ss_w2 = (
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (k,), pool_size=ss.pool_size)
        for k in range(2)
    )
    n, d, dt = p.n_steps, p.d, p.delta_t
    z = np.random.Generator(np.random.Philox(ss_w)).standard_normal((n_paths, n, d))
    dW = np.sqrt(dt) * (z @ p.rho_cholesky().T)
    dW2 = np.sqrt(dt) * np.random.Generator(np.random.Philox(ss_w2)).standard_normal((n_paths, n, d))
    return dW, dW2


def increments(p, seed):
    """(N, d) Brownian increments with covariance rho dt from seed's Philox stream."""
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((p.n_steps, p.d))
    return np.sqrt(p.delta_t) * (z @ p.rho_cholesky().T)


def neutrality_diagnostics(filter_hist, paths, params):
    """Check that path 0's innovations look like model noise and ignore prices.

    Returns (metric, component, value, stderr) rows: per-component innovation
    means, the sample covariance against its target rho dt, and the
    correlation between each innovation component and the matching futures
    price at the step start.
    """
    d_nu = filter_hist.d_nu[0]
    n, d = d_nu.shape
    if n < 30:
        raise ModelError(f"need at least 30 steps for diagnostics, got {n}")

    dt = params.delta_t
    rows: list[tuple[str, str, float, float]] = []

    mean = d_nu.mean(axis=0)
    sd = d_nu.std(axis=0, ddof=1)
    for i in range(d):
        rows.append(("innovation_mean", f"{i + 1}", float(mean[i]), float(sd[i] / np.sqrt(n))))

    cov = np.cov(d_nu.T, ddof=1).reshape(d, d)
    target = params.rho * dt
    for i in range(d):
        for j in range(i, d):
            # Var of a normal sample covariance entry: (s_ii s_jj + s_ij^2) / (n - 1).
            se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / (n - 1))
            rows.append(("innovation_cov_error", f"{i + 1},{j + 1}", float(cov[i, j] - target[i, j]), float(se)))

    F_at_start = paths.F[0, :-1, :]
    for i in range(d):
        x, y = d_nu[:, i], F_at_start[:n, i]
        corr = float(np.corrcoef(x, y)[0, 1])
        rows.append(("innovation_price_corr", f"{i + 1}", corr, float(1.0 / np.sqrt(n))))

    return rows
