import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futopt import (
    LogOptimalStrategy,
    MarketParams,
    ModelError,
    SingularModelError,
    StrategyObs,
    contract_price,
    cost_term,
    payoff_transform,
    position_from_weights,
)
from futopt.trading import ZERO_POSITION_THRESHOLD, log_optimal_factor


def _params(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=0.0, varsigma=0.0, f=50.0, c_spread=0.5,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


# -- contract price ---------------------------------------------------------

def test_contract_price_hand_values():
    assert contract_price(np.array([100.0]), np.array([50.0]))[0] == 5000.0
    assert np.array_equal(contract_price(np.array([3.5]), np.array([1.0])), [3.5])
    C = contract_price(np.array([100.0, 2.0]), np.array([50.0, 1000.0]))
    assert np.array_equal(C, [5000.0, 2000.0])


def test_contract_price_rejects_nonpositive():
    with pytest.raises(ModelError):
        contract_price(np.array([-1.0]), np.array([50.0]))
    with pytest.raises(ModelError):
        contract_price(np.array([100.0]), np.array([0.0]))


# -- positions --------------------------------------------------------------

def test_position_hand_value():
    P, clipped = position_from_weights(1_000_000.0, np.array([2.0]),
                                       np.array([5000.0]), np.array([1.0]))
    assert P[0] == 400.0
    assert not clipped.any()


def test_zero_weight_zero_position():
    P, _ = position_from_weights(1e6, np.zeros(3), np.full(3, 100.0), np.ones(3))
    assert np.all(P == 0.0)


def test_cap_clips_and_reports():
    P, clipped = position_from_weights(1_000_000.0, np.array([2.0]),
                                       np.array([5000.0]), np.array([1.0]),
                                       cap=np.array([100.0]))
    assert P[0] == 100.0
    assert clipped[0]


def test_cap_clips_short_side():
    P, clipped = position_from_weights(1e6, np.array([-2.0]), np.array([5000.0]),
                                       np.ones(1), cap=np.array([100.0]))
    assert P[0] == -100.0
    assert clipped[0]


def test_integer_contracts_round_toward_zero():
    P, _ = position_from_weights(1e6, np.array([1.9999]), np.array([5000.0]),
                                 np.ones(1), integer_contracts=True)
    assert P[0] == 399.0
    P, _ = position_from_weights(1e6, np.array([-1.9999]), np.array([5000.0]),
                                 np.ones(1), integer_contracts=True)
    assert P[0] == -399.0


def test_doubling_wealth_doubles_position_exactly():
    pi = np.array([1.37, -0.6])
    C = np.array([5000.0, 2000.0])
    k = np.array([2.0, 1.0])
    P1, _ = position_from_weights(123_456.0, pi, C, k)
    P2, _ = position_from_weights(2 * 123_456.0, pi, C, k)
    assert np.array_equal(P2, 2.0 * P1)


def test_gearing_scales_position():
    pi = np.array([1.0])
    P1, _ = position_from_weights(1e6, pi, np.array([5000.0]), np.array([1.0]))
    P3, _ = position_from_weights(1e6, pi, np.array([5000.0]), np.array([3.0]))
    assert P3[0] == 3.0 * P1[0]


# -- realized cost ----------------------------------------------------------

def test_cost_term_hand_value():
    p = _params()
    c, flagged = cost_term(np.array([10.0]), np.array([8.0]), np.array([5000.0]), p)
    # c f |dP| / (2 P C dt) = 0.5*50*2 / (2*10*5000/252)
    assert c[0] == pytest.approx(0.1260, abs=1e-12)
    assert not flagged.any()


def test_no_trade_no_cost_even_at_zero_position():
    p = _params()
    c, flagged = cost_term(np.array([0.0]), np.array([0.0]), np.array([5000.0]), p)
    assert c[0] == 0.0
    assert not flagged.any()
    # beside a row that trades, and as +0.0, not 0 / (2 P C dt) = -0.0, when short
    c, flagged = cost_term(np.array([[0.0], [-10.0], [12.0]]), np.array([[0.0], [-10.0], [10.0]]),
                           np.full((3, 1), 5000.0), p)
    assert np.array_equal(c[:2].view(np.uint64), np.zeros((2, 1)).view(np.uint64)) and c[2, 0] > 0
    assert not flagged.any()


def test_halving_dt_doubles_cost_bitwise():
    p = _params()
    p_half = p.with_updates(delta_t=p.delta_t / 2.0)
    c1, _ = cost_term(np.array([10.0]), np.array([8.0]), np.array([5000.0]), p)
    c2, _ = cost_term(np.array([10.0]), np.array([8.0]), np.array([5000.0]), p_half)
    assert c2[0] == 2.0 * c1[0]  # exact: dt halving is an exponent shift


def test_cost_inverse_dt_proportionality():
    p = _params()
    base, _ = cost_term(np.array([12.0]), np.array([10.0]), np.array([5000.0]), p)
    for dt in (1.0 / 52, 1.0 / 2520):
        c, _ = cost_term(np.array([12.0]), np.array([10.0]), np.array([5000.0]),
                         p.with_updates(delta_t=dt))
        assert c[0] * dt == pytest.approx(base[0] * p.delta_t, rel=1e-12)


def test_cost_degree_zero_homogeneous_in_positions():
    p = _params()
    c1, _ = cost_term(np.array([10.0]), np.array([8.0]), np.array([5000.0]), p)
    c2, _ = cost_term(np.array([70.0]), np.array([56.0]), np.array([5000.0]), p)
    assert c2[0] == pytest.approx(c1[0], rel=1e-14)


def test_cost_sign_follows_position():
    p = _params()
    c_long, _ = cost_term(np.array([10.0]), np.array([8.0]), np.array([5000.0]), p)
    c_short, _ = cost_term(np.array([-10.0]), np.array([-8.0]), np.array([5000.0]), p)
    assert c_short[0] == -c_long[0]


def test_near_zero_position_with_trade_flagged():
    p = _params()
    assert ZERO_POSITION_THRESHOLD == 1.0
    c, flagged = cost_term(np.array([0.5]), np.array([5.0]), np.array([5000.0]), p)
    assert flagged[0]
    assert np.isnan(c[0])
    c, flagged = cost_term(np.array([[0.5], [12.0]]), np.array([[5.0], [10.0]]), np.full((2, 1), 5000.0), p)
    assert flagged[:, 0].tolist() == [True, False]
    assert np.isnan(c[0, 0]) and c[1, 0] > 0


# -- cost anchored at a target position --------------------------------------

def test_approx_cost_zero_when_at_target():
    p = _params()
    c, _ = cost_term(np.array([10.0]), np.array([10.0]), np.array([5000.0]), p)
    assert c[0] == 0.0


def test_approx_cost_hand_value():
    p = _params()
    c, _ = cost_term(np.array([12.0]), np.array([10.0]), np.array([5000.0]), p)
    assert c[0] == pytest.approx(0.1050, abs=1e-12)


def test_approx_cost_sign_of_target():
    p = _params()
    c, _ = cost_term(np.array([-12.0]), np.array([10.0]), np.array([5000.0]), p)
    assert c[0] < 0.0


# -- payoff transform -------------------------------------------------------

def test_payoff_modes_agree_when_feasible():
    b = np.array([0.10])
    c = np.array([0.04])
    assert payoff_transform(b, c, "soft_threshold")[0] == pytest.approx(0.06)
    assert payoff_transform(b, c, "literal")[0] == pytest.approx(0.06)


def test_payoff_soft_threshold_clamps():
    out = payoff_transform(np.array([0.02]), np.array([0.04]), "soft_threshold")
    assert out[0] == 0.0


def test_payoff_literal_keeps_negative():
    out = payoff_transform(np.array([0.02]), np.array([0.04]), "literal")
    assert out[0] == pytest.approx(-0.02)


def test_payoff_negative_drift_mirror():
    out = payoff_transform(np.array([-0.10]), np.array([0.04]), "soft_threshold")
    assert out[0] == pytest.approx(-0.06)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
)
def test_soft_threshold_properties(b, c):
    out = payoff_transform(np.array([b]), np.array([c]), "soft_threshold")[0]
    assert abs(out) <= abs(b) + 1e-15
    assert out * b >= 0.0


# -- weights ----------------------------------------------------------------

def log_optimal_weights(upsilon, p, literal_product=False):
    """Growth-optimal weights pi = (sigma* rho sigma)^{-1} upsilon, as the policy applies the factor."""
    return np.asarray(upsilon, dtype=float) @ log_optimal_factor(p, literal_product).T


def test_weights_hand_value():
    p = _params(sigma=0.2, rho=1.0)
    pi = log_optimal_weights(np.array([0.08]), p)
    assert pi[0] == pytest.approx(2.0, rel=1e-13)


def test_zero_payoff_zero_weights():
    p = _params()
    assert np.all(log_optimal_weights(np.zeros(1), p) == 0.0)


def test_weights_decouple_for_diagonal_sigma_identity_rho():
    p = _params(d=2, rho=np.eye(2), sigma=np.diag([0.2, 0.4]),
                F0=np.array([100.0, 100.0]), beta0=np.array([0.0, 0.0]),
                f=np.array([1.0, 1.0]), c_spread=np.array([0.0, 0.0]))
    ups = np.array([0.08, 0.08])
    pi = log_optimal_weights(ups, p)
    assert pi[0] == pytest.approx(0.08 / 0.04, rel=1e-13)
    assert pi[1] == pytest.approx(0.08 / 0.16, rel=1e-13)


def test_literal_product_differs_when_sigma_rho_do_not_commute():
    sigma = np.array([[0.2, 0.1], [0.0, 0.3]])
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    p = _params(d=2, sigma=sigma, rho=rho, F0=np.array([100.0, 100.0]),
                beta0=np.array([0.0, 0.0]), f=np.array([1.0, 1.0]),
                c_spread=np.array([0.0, 0.0]))
    ups = np.array([0.05, -0.02])
    sym = log_optimal_weights(ups, p)
    lit = log_optimal_weights(ups, p, literal_product=True)
    assert np.allclose(sigma.T @ rho @ sigma @ sym, ups, atol=1e-12)
    assert np.allclose(sigma @ rho @ sigma @ lit, ups, atol=1e-12)
    assert not np.allclose(sym, lit)


def test_batched_weights_match_loop():
    p = _params(d=2, rho=np.array([[1.0, 0.3], [0.3, 1.0]]), sigma=0.25,
                F0=np.array([100.0, 100.0]), beta0=np.array([0.0, 0.0]),
                f=np.array([1.0, 1.0]), c_spread=np.array([0.0, 0.0]))
    rng = np.random.default_rng(1)
    ups = rng.normal(scale=0.05, size=(7, 2))
    batch = log_optimal_weights(ups, p)
    for i in range(7):
        assert np.allclose(batch[i], log_optimal_weights(ups[i], p), atol=1e-14)


def _solve_weights(upsilon, p, literal_product):
    """Weights by one LU solve per call, as the policy computed them per step."""
    M = (p.sigma if literal_product else p.sigma.T) @ p.rho @ p.sigma
    return np.linalg.solve(M, upsilon.T).T


def _per_step_solve_policy(obs, p, mode, literal_product):
    """LogOptimalStrategy.weights as it was with two solves per step."""
    pi_zc = _solve_weights(obs.beta_hat, p, literal_product)
    if mode == "zero_cost":
        return pi_zc
    P_star = obs.X[..., None] * p.k * pi_zc / obs.C
    c_hat, flagged = cost_term(P_star, obs.P_prev, obs.C, p)
    c_hat = np.where(flagged, 0.0, c_hat)
    upsilon = np.where(flagged, 0.0, payoff_transform(obs.beta_hat, c_hat, mode))
    return _solve_weights(upsilon, p, literal_product)


@pytest.mark.parametrize("literal_product", [False, True])
@pytest.mark.parametrize("mode", ["zero_cost", "soft_threshold", "literal"])
@pytest.mark.parametrize("d", [1, 2])
def test_hoisted_factor_matches_per_step_solve(d, mode, literal_product):
    if d == 1:
        p = _params()
    else:
        p = _params(d=2, sigma=np.array([[0.2, 0.1], [0.0, 0.3]]),
                    rho=np.array([[1.0, 0.4], [0.4, 1.0]]), F0=np.array([100.0, 100.0]),
                    beta0=np.array([0.0, 0.0]), f=np.array([50.0, 50.0]),
                    c_spread=np.array([0.5, 0.5]))
    rng = np.random.default_rng(4)
    n = 64
    F = rng.uniform(50.0, 150.0, size=(n, d))
    obs = StrategyObs(
        n=3, t=3 * p.delta_t, F=F, C=contract_price(F, p.f),
        X=np.where(rng.random(n) < 0.1, 1.0, rng.uniform(0.0, 2e6, size=n)),
        P_prev=rng.normal(scale=100.0, size=(n, d)),
        beta_hat=rng.normal(scale=0.05, size=(n, d)),
    )
    strategy = LogOptimalStrategy(mode=mode, literal_product=literal_product)
    strategy.reset(n, p)
    got = strategy.weights(obs)
    want = _per_step_solve_policy(obs, p, mode, literal_product)
    assert got.shape == (n, d)
    if d == 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.allclose(log_optimal_weights(obs.beta_hat, p, literal_product),
                       _solve_weights(obs.beta_hat, p, literal_product), rtol=1e-12, atol=0)


def test_singular_sigma_rho_sigma_raises_in_reset():
    p = _params(d=2, sigma=np.diag([0.2, 0.0]), rho=np.eye(2), F0=np.array([100.0, 100.0]),
                beta0=np.array([0.0, 0.0]), f=np.array([1.0, 1.0]),
                c_spread=np.array([0.0, 0.0]))
    with pytest.raises(SingularModelError, match="sigma rho sigma product"):
        LogOptimalStrategy().reset(4, p)
    with pytest.raises(SingularModelError, match="sigma rho sigma product"):
        log_optimal_weights(np.zeros(2), p)
