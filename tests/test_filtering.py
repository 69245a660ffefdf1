"""Filter tests, anchored by a brute-force joint-Gaussian conditioning oracle.

The oracle assembles the full covariance of (beta_N, dR_0..dR_{N-1}) from the
linear-Gaussian recursions and conditions by block inversion; the recursive
filter must reproduce it to near machine precision.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neutrality_diagnostics
from futopt import MarketParams, ModelError, SingularModelError, run_filter_batch, simulate_batch
from futopt.filtering import KalmanSchedule, default_p_cov0


def _params(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=-0.5, varsigma=0.1, f=1.0, c_spread=0.0,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


TWO_ASSET = MarketParams(
    d=2, n_steps=40, delta_t=1.0 / 252, sigma=[[0.2, 0.05], [0.0, 0.25]],
    rho=[[1.0, 0.3], [0.3, 1.0]], alpha=[[-0.5, 0.0], [0.1, -1.0]], varsigma=0.1,
    f=1.0, c_spread=0.0, m=0.0, r=0.0, k=1.0, F0=100.0, beta0=[0.08, -0.04],
)


def gaussian_conditioning_oracle(params, delta_R, p_cov0, beta_hat0):
    """E[beta_N | dR_0..dR_{N-1}] by explicit covariance assembly (d=1).

    beta_{n+1} = a beta_n + vs dW2_n,  dR_n = beta_n dt + s dW_n, with
    beta_0 ~ N(beta_hat0, p0) independent of both noise sequences.
    """
    n = delta_R.shape[0]
    dt = params.delta_t
    a = 1.0 + params.alpha[0, 0] * dt
    vs2 = params.varsigma[0, 0] ** 2 * dt
    s2 = (params.sigma[0, 0] ** 2) * params.rho[0, 0] * dt
    p0 = float(np.atleast_2d(p_cov0)[0, 0])
    b0 = float(np.atleast_1d(beta_hat0)[0])

    # Cov(beta_i, beta_j) = a^{|i-j|} Var(beta_min(i,j))
    var_beta = np.empty(n + 1)
    var_beta[0] = p0
    for i in range(n):
        var_beta[i + 1] = a * a * var_beta[i] + vs2
    cov_bb = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            lo = min(i, j)
            cov_bb[i, j] = a ** abs(i - j) * var_beta[lo]

    # observations dR_k involve beta_k; target is beta_N
    cov_rr = cov_bb[:n, :n] * dt * dt + s2 * np.eye(n)
    cov_tr = cov_bb[n, :n] * dt                    # Cov(beta_N, dR_k)
    mean_beta = b0 * a ** np.arange(n + 1)
    mean_r = mean_beta[:n] * dt

    w = np.linalg.solve(cov_rr, delta_R[:, 0] - mean_r)
    return mean_beta[n] + cov_tr @ w


def test_recursive_filter_matches_gaussian_conditioning():
    p = _params(n_steps=10, alpha=-0.4, varsigma=0.15)
    delta_R = simulate_batch(p, 42, 1).delta_R()
    p_cov0 = np.array([[0.02]])
    beta_hat0 = np.array([0.05])
    hist = run_filter_batch(delta_R, p.with_updates(beta0=beta_hat0), p_cov0=p_cov0)
    oracle = gaussian_conditioning_oracle(p, delta_R[0], p_cov0, beta_hat0)
    assert hist.beta_hat[0, -1, 0] == pytest.approx(oracle, rel=1e-8)


def test_oracle_agreement_across_seeds():
    p = _params(n_steps=10, alpha=-1.0, varsigma=0.2)
    for seed in (0, 1, 2, 3):
        delta_R = simulate_batch(p, seed, 1).delta_R()
        hist = run_filter_batch(delta_R, p)
        oracle = gaussian_conditioning_oracle(p, delta_R[0], default_p_cov0(p), p.beta0)
        assert hist.beta_hat[0, -1, 0] == pytest.approx(oracle, rel=1e-8)


# -- degenerate and hand-evaluated cases ------------------------------------

def test_perfectly_known_drift_has_zero_gain():
    p = _params(varsigma=0.0, alpha=-1.0, delta_t=0.1, beta0=0.1, n_steps=5)
    delta_R = simulate_batch(p, 0, 1).delta_R()
    hist = run_filter_batch(delta_R, p, p_cov0=np.zeros((1, 1)))
    # beta_hat follows the deterministic recursion regardless of returns
    expected = 0.1 * 0.9 ** np.arange(6)
    assert np.allclose(hist.beta_hat[0, :, 0], expected, atol=1e-15)
    assert np.all(hist.p_cov == 0.0)


def test_one_step_estimate_hand_value():
    p = _params(varsigma=0.0, alpha=-1.0, delta_t=0.1, beta0=0.1, n_steps=1)
    delta_R = simulate_batch(p, 0, 1).delta_R()
    hist = run_filter_batch(delta_R, p, p_cov0=np.zeros((1, 1)))
    assert hist.beta_hat[0, 1, 0] == pytest.approx(0.09, abs=1e-15)


def test_innovation_hand_value():
    # d_nu = (dR - beta_pre dt) / sigma with the pre-update estimate
    p = _params(varsigma=0.0, alpha=0.0, beta0=0.08, n_steps=1)
    delta_R = np.array([[[0.01]]])
    hist = run_filter_batch(delta_R, p, p_cov0=np.zeros((1, 1)))
    assert hist.d_nu[0, 0, 0] == pytest.approx((0.01 - 0.08 / 252) / 0.2, rel=1e-12)
    assert hist.d_nu[0, 0, 0] == pytest.approx(0.0484127, abs=5e-8)


def test_singular_sigma_rejected():
    p = _params(sigma=0.0)
    with pytest.raises(SingularModelError, match="sigma"):
        run_filter_batch(np.zeros((1, 4, 1)), p)


def test_innovation_shape_and_start():
    p = _params(n_steps=37)
    hist = run_filter_batch(simulate_batch(p, 5, 1).delta_R(), p)
    assert hist.d_nu.shape == (1, 37, 1)
    assert hist.beta_hat.shape == (1, 38, 1)
    assert np.array_equal(hist.beta_hat[0, 0], p.beta0)


def test_covariance_psd_along_the_path():
    p = _params(d=2, rho=np.array([[1.0, 0.3], [0.3, 1.0]]), sigma=0.25,
                alpha=np.diag([-0.5, -1.0]), varsigma=0.1,
                F0=np.array([100.0, 2.0]), beta0=np.array([0.08, -0.04]),
                n_steps=64)
    hist = run_filter_batch(simulate_batch(p, 14, 1).delta_R(), p)
    for P in hist.p_cov:
        eig = np.linalg.eigvalsh(P)
        assert eig.min() >= -1e-12


def test_frozen_drift_estimate_converges():
    p = _params(varsigma=0.0, alpha=0.0, beta0=0.08)
    gaps = []
    for n in (100, 1_000, 10_000):
        pn = p.with_updates(n_steps=n)
        delta_R = simulate_batch(pn, 7, 1).delta_R()
        hist = run_filter_batch(delta_R, pn.with_updates(beta0=0.0), p_cov0=np.array([[0.05]]))
        gaps.append(abs(hist.beta_hat[0, -1, 0] - 0.08))
    assert gaps[2] < gaps[0]


def test_frozen_drift_matches_bayes_least_squares():
    """With a static state the filter reduces to conjugate Bayes regression.

    Posterior precision: 1/p0 + n dt^2 / (s^2 rho dt); posterior mean is the
    precision-weighted blend of the prior and the observation average.
    """
    p = _params(varsigma=0.0, alpha=0.0, beta0=0.08, n_steps=500)
    delta_R = simulate_batch(p, 19, 1).delta_R()
    p0, b0 = 0.05, 0.02
    hist = run_filter_batch(delta_R, p.with_updates(beta0=b0), p_cov0=np.array([[p0]]))

    dt = p.delta_t
    obs_var = p.sigma[0, 0] ** 2 * dt
    dR = delta_R[0, :, 0]
    precision = 1.0 / p0 + dR.size * dt * dt / obs_var
    mean = (b0 / p0 + dt * dR.sum() / obs_var) / precision
    assert hist.beta_hat[0, -1, 0] == pytest.approx(mean, rel=1e-10)
    assert hist.p_cov[-1, 0, 0] == pytest.approx(1.0 / precision, rel=1e-10)


def test_batch_filter_matches_single():
    # beta_hat and d_nu are stored step-major; the public (n_paths, ..., d)
    # views must hold what filtering a batch of one gives: bit for bit at
    # d = 1, where the filter's products are elementwise multiplies and no
    # BLAS call runs, to rounding at d >= 2, where OpenBLAS picks its
    # small-matmul kernel by row count and operand layout (the parent layout
    # included)
    for p in (_params(n_steps=40), TWO_ASSET):
        n, d = p.n_steps, p.d
        same = np.array_equal if d == 1 else lambda a, b: np.allclose(a, b, rtol=1e-12, atol=0.0)
        delta_R = simulate_batch(p, 5, 5).delta_R()
        batch = run_filter_batch(delta_R, p)
        assert batch.beta_hat.shape == (5, n + 1, d)
        assert batch.d_nu.shape == (5, n, d)
        # gain schedule is observation independent: shared covariance
        assert batch.p_cov.shape == (n + 1, d, d)
        for i in (0, 2, 4):
            single = run_filter_batch(delta_R[i : i + 1], p)
            assert same(batch.beta_hat[i : i + 1], single.beta_hat)
            assert same(batch.d_nu[i : i + 1], single.d_nu)
            assert np.array_equal(batch.p_cov, single.p_cov)


# -- streamed estimates -----------------------------------------------------

_ESTIMATE_CASES = {   # (market, p_cov0)
    "d1": (_params(n_steps=40), None),
    "d1-p_cov0": (_params(n_steps=40), 0.02),
    "d2": (TWO_ASSET, None),
    "d2-p_cov0": (TWO_ASSET, [[0.4, 0.1], [0.1, 0.3]]),
}


@pytest.mark.parametrize("case", list(_ESTIMATE_CASES))
def test_estimates_are_the_batch_filter_rows(case):
    # The rows the step loops read are the whole-batch filter's beta_hat
    # rows 0 .. N - 1, bit for bit; each is its own read-only array, since a
    # lagged policy keeps past rows while the next ones are made.
    p, p_cov0 = _ESTIMATE_CASES[case]
    batch = simulate_batch(p, 5, 16)
    rows = list(KalmanSchedule(p, p.n_steps, p_cov0).estimates(batch.R))
    want = run_filter_batch(batch.delta_R(), p, p_cov0).beta_hat
    assert len(rows) == p.n_steps
    for n, row in enumerate(rows):
        assert row.shape == (16, p.d) and not row.flags.writeable
        assert np.array_equal(row.view(np.uint64), want[:, n].view(np.uint64)), n
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(rows, 2))


def test_estimates_are_causal():
    # Row n has seen returns through t_n only: moving R after t_n leaves
    # rows 0 .. n as they were, and the next row sees the move.
    p = _params(n_steps=20)
    R = simulate_batch(p, 3, 8).R
    ks = KalmanSchedule(p, p.n_steps)
    base = list(ks.estimates(R))
    for n in (0, 7, 18):
        moved = R.copy()
        moved[:, n + 1 :] += 0.01
        rows = list(ks.estimates(moved))
        assert all(np.array_equal(rows[k], base[k]) for k in range(n + 1)), n
        assert not np.array_equal(rows[n + 1], base[n + 1]), n


# -- diagnostics ------------------------------------------------------------

def test_diagnostics_on_injected_brownian_innovations():
    # feed the filter's own noise model directly: residuals that are exact
    # Brownian increments must produce centered diagnostics
    p = _params(varsigma=0.0, alpha=0.0, beta0=0.0, n_steps=20_000)
    rng = np.random.default_rng(3)
    dW = np.sqrt(p.delta_t) * rng.standard_normal((p.n_steps, 1))
    delta_R = p.sigma[0, 0] * dW[None]  # beta = 0: returns are pure noise
    path = simulate_batch(p, 10, 1)
    hist = run_filter_batch(delta_R, p, p_cov0=np.zeros((1, 1)))
    rows = {(r[0], r[1]): (r[2], r[3]) for r in neutrality_diagnostics(hist, path, p)}
    mean, se = rows[("innovation_mean", "1")]
    assert abs(mean) <= 3.0 * se
    cov_err, cov_se = rows[("innovation_cov_error", "1,1")]
    assert abs(cov_err) <= 3.0 * cov_se


def test_diagnostics_reject_short_paths():
    p = _params(n_steps=10)
    path = simulate_batch(p, 2, 1)
    hist = run_filter_batch(path.delta_R(), p)
    with pytest.raises(ModelError, match="at least 30 steps"):
        neutrality_diagnostics(hist, path, p)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.3))
def test_estimate_is_deterministic_in_returns(seed, varsigma):
    p = _params(n_steps=16, varsigma=varsigma)
    delta_R = simulate_batch(p, seed, 1).delta_R()
    a = run_filter_batch(delta_R, p)
    b = run_filter_batch(delta_R.copy(), p)
    assert np.array_equal(a.beta_hat, b.beta_hat)
    assert np.array_equal(a.d_nu, b.d_nu)
