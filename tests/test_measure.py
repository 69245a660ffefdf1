import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import increments
from futopt import (
    MarketParams,
    ModelError,
    SingularModelError,
    build_measure_state,
    cap_relative_risk,
    change_measure,
    discount_and_density,
    exponential_martingale,
    martingale_recursion,
    relative_risk,
    zeta_projection,
)
from futopt._rows import _quad_form
from futopt.measure import advance_log_z, log_martingale_step


def _params(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


# -- relative risk ----------------------------------------------------------

def test_zero_premium_zero_theta():
    p = _params()
    theta = relative_risk(np.zeros((252, 1)), p)
    assert np.all(theta == 0.0)


def test_scalar_relative_risk_hand_value():
    p = _params()
    theta = relative_risk(np.full((1, 1), 0.08), p)
    assert theta[0, 0] == pytest.approx(0.4, rel=1e-14)


def test_relative_risk_round_trip_d2():
    rng = np.random.default_rng(0)
    sigma = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    rho = np.array([[1.0, 0.35], [0.35, 1.0]])
    p = _params(d=2, sigma=sigma, rho=rho, F0=np.array([100.0, 100.0]),
                beta0=np.array([0.0, 0.0]))
    beta_eff = rng.normal(size=(10, 2))
    theta = relative_risk(beta_eff, p)
    back = theta @ (rho @ sigma).T
    assert np.allclose(back, beta_eff, atol=1e-12)


@pytest.mark.parametrize("sigma", [0.2, 0.3, 1.0 / 7.0, 3.0, 0.013])
def test_relative_risk_bit_equal_to_solve_at_d1(sigma):
    p = _params(sigma=sigma)
    rows = np.array([[0.0], [-0.0], [1e-300], [-1e-300], [1e300], [-1e300], [0.08], [-3.7],
                     [5e-324], [np.pi]])
    rows = np.concatenate([rows, np.random.default_rng(1).normal(size=(500, 1))])
    theta = relative_risk(rows, p)
    solved = np.linalg.solve(p.rho @ p.sigma, rows.T).T
    assert np.array_equal(theta, solved)
    # The product accumulates from +0.0, so a -0.0 row comes back +0.0 where
    # solve keeps the sign; every other row matches bit for bit.
    signed = rows[:, 0] != 0.0
    assert np.array_equal(theta[signed].view(np.int64), solved[signed].view(np.int64))


def test_relative_risk_singular_rho_sigma_raises():
    p = _params(d=2, sigma=np.ones((2, 2)), F0=np.array([100.0, 100.0]), beta0=np.zeros(2))
    for _ in range(2):   # on every call: a failed inversion is not cached
        with pytest.raises(SingularModelError, match="rho sigma product"):
            relative_risk(np.ones((3, 2)), p)


def test_rho_sigma_is_inverted_once_per_parameter_set():
    # the step loops call relative_risk on every step with one params object
    p = _params(d=2, sigma=[[0.2, 0.05], [0.0, 0.25]], rho=[[1.0, 0.3], [0.3, 1.0]],
                F0=np.array([100.0, 100.0]), beta0=np.zeros(2))
    inv = p.rho_sigma_inv
    assert p.rho_sigma_inv is inv
    assert np.array_equal(inv, np.linalg.inv(p.rho @ p.sigma))
    assert p.with_updates(sigma=0.3).rho_sigma_inv[0, 0] != inv[0, 0]


def test_cap_rescales_rows_and_counts():
    p = _params(d=2, rho=np.eye(2), F0=np.array([1.0, 1.0]),
                beta0=np.array([0.0, 0.0]))
    theta = np.array([[3.0, 4.0], [30.0, 40.0]])
    capped, n = cap_relative_risk(theta, theta_max=10.0)
    assert n == 1
    assert np.linalg.norm(capped[0]) == pytest.approx(5.0)
    assert np.linalg.norm(capped[1]) == pytest.approx(10.0)
    # direction preserved
    assert capped[1, 1] / capped[1, 0] == pytest.approx(4.0 / 3.0)


def test_uncapped_theta_comes_back_as_is_but_not_into_the_state():
    p = _params(n_steps=4)
    theta = np.full((3, 4, 1), 0.5)
    capped, n = cap_relative_risk(theta, theta_max=10.0)
    assert capped is theta and n == 0
    dW = np.zeros((3, 4, 1))
    for theta_max in (10.0, None):
        ms = build_measure_state(theta, dW, p, theta_max=theta_max)
        assert not np.shares_memory(ms.theta, theta)
        assert np.array_equal(ms.theta, theta)


# -- exponential martingale -------------------------------------------------

def test_zero_theta_unit_martingale():
    p = _params(n_steps=16)
    dW = increments(p, 0)
    Z = exponential_martingale(np.zeros((16, 1)), dW, p)
    assert np.all(Z == 1.0)


def test_single_step_hand_value():
    p = _params(n_steps=1)
    Z = exponential_martingale(np.full((1, 1), 0.4), np.full((1, 1), 0.01), p)
    assert Z[1] == pytest.approx(np.exp(-0.004 - 0.5 * 0.16 / 252), rel=1e-14)
    assert Z[1] == pytest.approx(np.exp(-0.0043175), abs=1e-7)


def test_martingale_mean_one_1e5_paths():
    # d=1, constant theta=0.4, T=1: E[Z_T] = 1 within 3 stderr
    p = _params()
    n_paths = 100_000
    rng = np.random.Generator(np.random.Philox(99))
    dW = np.sqrt(p.delta_t) * rng.standard_normal((n_paths, 252, 1))
    theta = np.full((n_paths, 252, 1), 0.4)
    Z_T = exponential_martingale(theta, dW, p)[:, -1]
    se = Z_T.std(ddof=1) / np.sqrt(n_paths)
    assert abs(Z_T.mean() - 1.0) <= 3.0 * se


def martingale_recursion_gap(theta, dW, params) -> tuple[float, float]:
    """Max per-step gap between closed-form and recursion growth factors.

    Returns (max_gap, c_hat) where c_hat = max_gap / dt estimates the
    constant in the first-order agreement bound.
    """
    theta = np.asarray(theta, dtype=float)
    dW = np.asarray(dW, dtype=float)
    a = np.einsum("...i,...i->...", theta, dW)
    q = _quad_form(theta, params.rho) * params.delta_t
    gap = np.abs(np.exp(-a - 0.5 * q) - (1.0 - a))
    max_gap = float(np.max(gap))
    return max_gap, max_gap / params.delta_t


def test_recursion_first_order_gap_scales_with_dt():
    p = _params()
    theta = np.full((252, 1), 0.4)
    dW = increments(p, 8)
    gap, c_hat = martingale_recursion_gap(theta, dW, p)
    assert gap <= c_hat * p.delta_t * (1 + 1e-12)
    assert np.isfinite(c_hat)

    # halving dt (same standardized draws) roughly halves the max gap
    p_half = _params(delta_t=p.delta_t / 2)
    gap_half, _ = martingale_recursion_gap(theta, dW / np.sqrt(2.0), p_half)
    assert gap_half / gap == pytest.approx(0.5, abs=0.2)


def test_recursion_and_closed_form_track():
    p = _params(n_steps=64)
    theta = np.full((64, 1), 0.3)
    dW = increments(p, 4)
    Z = exponential_martingale(theta, dW, p)
    Z_rec = martingale_recursion(theta, dW)
    assert np.max(np.abs(Z - Z_rec)) < 5e-3  # O(dt) agreement only


def test_overflow_reported_with_step():
    p = _params(n_steps=4)
    theta = np.full((4, 1), 1.0)
    dW = np.full((4, 1), -800.0)
    with pytest.raises(ModelError, match="step"):
        exponential_martingale(theta, dW, p)
    # with a path axis the message names the path too
    with pytest.raises(ModelError, match="step 1 on path 1"):
        exponential_martingale(np.stack([0.0 * theta, theta]), np.stack([dW, dW]), p)


def test_advance_log_z_steps_in_place_and_names_an_overflow():
    # One streamed step: theta is the capped relative risk, log Z gains its
    # log_martingale_step in place, and a planted dW row that overflows Z
    # names Z's step (the loop's step + 1) and the first path it overflows on.
    p = _params()
    beta_eff = np.array([[0.08], [0.08], [-1.0]])
    dW = np.full((3, 1), 0.01)
    log_z = np.full(3, 0.5)
    theta, n_capped = advance_log_z(log_z, beta_eff, dW, p, 2.0, 0)
    want, want_capped = cap_relative_risk(relative_risk(beta_eff, p), 2.0)
    assert n_capped == want_capped == 1 and np.array_equal(theta, want)
    assert np.array_equal(log_z, 0.5 + log_martingale_step(want, dW, p))
    dW[1:, 0] = -4000.0   # -theta dW = 1600 > log(max float) at theta 0.4 on path 1
    with pytest.raises(ModelError, match=r"^exponential martingale overflowed at step 6 on path 1$"):
        advance_log_z(log_z, beta_eff, dW, p, np.inf, 5)


# -- changed measure --------------------------------------------------------

def test_zero_theta_keeps_brownian():
    p = _params(n_steps=8)
    dW = increments(p, 1)
    assert np.array_equal(change_measure(np.zeros((8, 1)), dW, p), dW)


def test_shift_hand_value():
    p = _params(n_steps=1)
    dW = np.array([[0.01]])
    shifted = change_measure(np.array([[0.4]]), dW, p)
    assert shifted[0, 0] == pytest.approx(0.01 + 0.0015873, abs=1e-7)


def test_tilted_increments_centered():
    # under the tilt, E[Z * dW~] = 0: importance-sampling identity
    p = _params(n_steps=16)
    n_paths = 100_000
    rng = np.random.Generator(np.random.Philox(5))
    dW = np.sqrt(p.delta_t) * rng.standard_normal((n_paths, 16, 1))
    theta = np.full((n_paths, 16, 1), 0.4)
    Z_T = exponential_martingale(theta, dW, p)[:, -1]
    dW_tilde = change_measure(theta, dW, p)
    for bucket in (slice(0, 8), slice(8, 16)):
        samples = Z_T * dW_tilde[:, bucket, 0].sum(axis=1)
        se = samples.std(ddof=1) / np.sqrt(n_paths)
        assert abs(samples.mean()) <= 3.0 * se


# -- discount and density ---------------------------------------------------

def test_full_margin_no_interest():
    p = _params(m=1.0, r=0.05, n_steps=12)
    gamma, H = discount_and_density(p, np.ones(13))
    assert np.all(gamma == 1.0)
    assert np.all(H == 1.0)


def test_zero_rate_flat_discount():
    p = _params(r=0.0, n_steps=12)
    gamma, _ = discount_and_density(p, np.ones(13))
    assert np.all(gamma == 1.0)


def test_terminal_discount_hand_value():
    p = _params(m=0.2, r=0.05, n_steps=252)  # (1-m) r = 0.04, T = 1
    gamma, _ = discount_and_density(p, np.ones(253))
    assert gamma[-1] == pytest.approx(np.exp(-0.04), rel=1e-12)
    assert gamma[-1] == pytest.approx(0.960789, abs=1e-6)
    assert np.all(np.diff(gamma) <= 0)


# -- zeta -------------------------------------------------------------------

def test_zero_theta_hat_unit_zeta():
    p = _params(n_steps=16)
    dW = increments(p, 2)
    zeta, gap = zeta_projection(np.zeros((16, 1)), dW, p)
    assert np.all(zeta == 1.0)
    assert gap == 0.0


def test_zeta_recursion_gap_small_on_random_path():
    # closed form vs the stochastic difference equation, discarding the
    # O(dt^2) remainder consistently: max relative gap < 1e-6 at N=252
    p = _params()
    dW = increments(p, 3)
    theta_hat = np.full((252, 1), 0.4)
    dW_tilde = change_measure(theta_hat, dW, p)
    _, gap = zeta_projection(theta_hat, dW_tilde, p)
    assert gap < 1e-6


def test_inverse_zeta_tilted_martingale():
    # E[Z * (1/zeta_T)] = 1: the density identity that survives discretization
    p = _params(n_steps=64)
    n_paths = 20_000
    rng = np.random.Generator(np.random.Philox(17))
    dW = np.sqrt(p.delta_t) * rng.standard_normal((n_paths, 64, 1))
    theta = np.full((n_paths, 64, 1), 0.4)
    Z_T = exponential_martingale(theta, dW, p)[:, -1]
    dW_tilde = change_measure(theta, dW, p)
    zeta, _ = zeta_projection(theta, dW_tilde, p)
    samples = Z_T / zeta[:, -1]
    se = samples.std(ddof=1) / np.sqrt(n_paths)
    assert abs(samples.mean() - 1.0) <= max(3.0 * se, 1e-12)


# -- assembled state --------------------------------------------------------

def test_measure_state_invariants():
    p = _params(m=0.2, r=0.05)
    dW = increments(p, 6)[None]
    theta = np.full((1, 252, 1), 0.4)
    ms = build_measure_state(theta, dW, p)
    assert ms.Z[0, 0] == 1.0
    assert np.all(ms.Z > 0)
    assert ms.gamma[0] == 1.0 and np.all(np.diff(ms.gamma) < 0)   # r > 0: strictly discounting
    assert np.all(ms.H > 0)
    assert np.allclose(ms.H, ms.gamma * ms.Z)
    assert np.all(ms.W_tilde[:, 0, :] == 0.0)
    assert ms.n_capped == 0


def test_measure_state_cap_applied():
    p = _params()
    dW = increments(p, 6)[None]
    theta = np.full((1, 252, 1), 50.0)
    ms = build_measure_state(theta, dW, p, theta_max=10.0)
    assert ms.n_capped == 252
    assert np.max(np.abs(ms.theta)) == pytest.approx(10.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(0, 10_000))
def test_w_tilde_shift_is_deterministic_drift(theta_val, seed):
    p = _params(n_steps=8)
    dW = increments(p, seed)
    theta = np.full((8, 1), theta_val)
    shifted = change_measure(theta, dW, p)
    assert np.allclose(shifted - dW, theta_val * p.delta_t, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 3.0), st.integers(0, 10_000))
def test_martingale_positive_starts_at_one(theta_val, seed):
    p = _params(n_steps=16)
    dW = increments(p, seed)
    Z = exponential_martingale(np.full((16, 1), theta_val), dW, p)
    assert Z[0] == 1.0
    assert np.all(Z > 0)
