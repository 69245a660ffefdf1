import tracemalloc

import numpy as np
import pytest

from futopt import MarketParams


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
