import csv
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futopt import (
    MarketParams,
    ModelError,
    big_X,
    config_from_dict,
    conjugate,
    conjugate_grid_sup,
    double_conjugate_grid,
    lagrange_multiplier,
    log_optimal_closed_forms,
    log_utility,
    optimal_terminal_wealth,
    power_utility,
    relative_risk,
    run_experiment,
    run_filter_batch,
    simulate_batch,
    validate_utility,
)


def test_log_passes_validation_battery():
    report = validate_utility(log_utility())
    assert report["ok"]
    assert report["increasing"] and report["concave"]
    assert report["inada_zero"] and report["inada_infinity"]
    assert report["inverse_marginal_max_rel_err"] <= 1e-10


def test_power_passes_validation_battery():
    report = validate_utility(power_utility(0.2))
    assert report["ok"]
    assert report["growth_bound"]
    assert report["marginal_fd_max_rel_err"] <= 1e-6


def test_power_exponent_range():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ModelError):
            power_utility(bad)


def test_log_conjugate_hand_values():
    u = log_utility()
    assert conjugate(u, 1.0) == pytest.approx(-1.0, abs=1e-15)
    assert conjugate(u, 2.0) == pytest.approx(-np.log(2.0) - 1.0, rel=1e-15)
    assert conjugate(u, 2.0) == pytest.approx(-1.693147, abs=5e-7)


@pytest.mark.parametrize("u", [log_utility(), power_utility(0.2)],
                         ids=lambda u: u.name)
def test_fenchel_young_inequality_on_grid(u):
    x = np.geomspace(1e-4, 1e4, 100)
    y = np.geomspace(1e-4, 1e4, 100)
    lhs = u.u(x)[:, None]
    rhs = conjugate(u, y)[None, :] + x[:, None] * y[None, :]
    assert np.all(lhs <= rhs + 1e-9 * np.abs(rhs))


@pytest.mark.parametrize("u", [log_utility(), power_utility(0.2)],
                         ids=lambda u: u.name)
def test_grid_sup_agrees_with_closed_form(u):
    for y in np.geomspace(0.05, 20.0, 9):
        exact = float(conjugate(u, y))
        grid = conjugate_grid_sup(u, y)
        assert abs(grid - exact) <= 1e-6 * max(1.0, abs(exact))


def _scalar_golden_max(f, a, b, n_iter):
    """The golden-section loop as it ran on one bracket at a time."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_iter):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return a, b, fc, fd


def _scalar_grid_sup(u, y, n_grid, n_refine):
    x = np.geomspace(1e-8, 1e8, n_grid)
    vals = u.u(x) - x * y
    j = int(np.argmax(vals))
    lo, hi = x[max(j - 1, 0)], x[min(j + 1, n_grid - 1)]

    def objective(t):
        xt = np.exp(t)
        return u.u(xt) - xt * y

    a, b, _, _ = _scalar_golden_max(objective, np.log(lo), np.log(hi), n_refine)
    x_star = np.exp(0.5 * (a + b))
    return float(max(vals[j], u.u(x_star) - x_star * y))


def _scalar_double_conjugate(u, x, n_grid, n_refine):
    """One scalar oracle call per y point, as before the oracle took arrays."""
    y = np.geomspace(1e-8, 1e8, n_grid)
    vals = np.array([_scalar_grid_sup(u, yy, 801, 40) for yy in y]) + x * y
    j = int(np.argmin(vals))
    lo, hi = y[max(j - 1, 0)], y[min(j + 1, n_grid - 1)]

    def neg_objective(t):
        yy = np.exp(t)
        return -(_scalar_grid_sup(u, yy, 801, 40) + x * yy)

    _, _, fc, fd = _scalar_golden_max(neg_objective, np.log(lo), np.log(hi), n_refine)
    return float(min(vals[j], -fc, -fd))


Y_WIDE = np.geomspace(1e-8, 1e8, 4001)


@pytest.mark.parametrize("u", [log_utility(), power_utility(0.2)], ids=["log", "power_0.2"])
def test_grid_sup_array_equals_scalar_calls(u):
    arr = conjugate_grid_sup(u, Y_WIDE, n_grid=801, n_refine=40)
    # every row against the scalar search, and every 8th row (both ends too) against a scalar call
    assert np.array_equal(arr, [_scalar_grid_sup(u, y, 801, 40) for y in Y_WIDE])
    rows = np.r_[0:4001:8, 4000]
    assert np.array_equal(arr[rows], [conjugate_grid_sup(u, y, n_grid=801, n_refine=40) for y in Y_WIDE[rows]])
    # the grid covers rows whose argmax sits on the first and on the last grid point
    x = np.geomspace(1e-8, 1e8, 801)
    j = np.argmax(u.u(x) - x * Y_WIDE[:, None], axis=-1)
    assert j.min() == 0 and j.max() == 800


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_double_conjugate_equals_scalar_loop(x):
    u = log_utility()
    # 601 points: two full blocks of rows and a short one
    assert double_conjugate_grid(u, x, n_grid=601, n_refine=20) == _scalar_double_conjugate(u, x, 601, 20)


def test_double_conjugate_array_equals_scalar_loop():
    u = log_utility()
    xs = np.array([0.5, 1.0, 2.0])
    arr = double_conjugate_grid(u, xs, n_grid=601, n_refine=20)
    assert np.array_equal(arr, [_scalar_double_conjugate(u, x, 601, 20) for x in xs])


def test_double_conjugate_shapes_and_types():
    u = log_utility()
    for x in (0.7, np.float64(0.7), np.asarray(0.7)):
        assert type(double_conjugate_grid(u, x, n_grid=301, n_refine=10)) is float
    assert double_conjugate_grid(u, np.full((2, 2), 0.7), n_grid=301, n_refine=10).shape == (2, 2)


@pytest.mark.parametrize("x", [0.0, -1.0, [1.0, 0.0], [[2.0], [np.nan]], np.nan])
def test_double_conjugate_rejects_any_x_not_above_zero(x):
    with pytest.raises(ModelError, match="x > 0"):
        double_conjugate_grid(log_utility(), np.asarray(x), n_grid=301, n_refine=10)


def test_grid_sup_shapes_and_types():
    u = power_utility(0.2)
    for y in (0.7, np.float64(0.7), np.asarray(0.7)):
        assert type(conjugate_grid_sup(u, y)) is float
    assert conjugate_grid_sup(u, np.full((2, 3), 0.7)).shape == (2, 3)
    assert conjugate_grid_sup(u, [0.7])[0] == conjugate_grid_sup(u, 0.7)


@pytest.mark.parametrize("y", [[1.0, 0.0, 2.0], [1.0, -1.0], [[2.0], [-3.0]]])
def test_grid_sup_rejects_any_nonpositive_y(y):
    with pytest.raises(ModelError, match="y > 0"):
        conjugate_grid_sup(log_utility(), np.asarray(y))


def test_grid_oracles_never_use_the_first_order_conjugate():
    def refuse(y):
        raise AssertionError("the grid oracle must not call inverse_marginal")

    u = dataclasses.replace(log_utility(), inverse_marginal=refuse)
    conjugate_grid_sup(u, np.geomspace(0.05, 20.0, 9))
    double_conjugate_grid(u, 1.0, n_grid=301, n_refine=10)


def test_double_conjugate_calls_oracle_once_for_the_grid(monkeypatch):
    import futopt.utility as utility

    calls = []
    real = utility.conjugate_grid_sup

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(utility, "conjugate_grid_sup", counted)
    # three x share one U~ grid call and one refinement: 2 + 80 golden-section points
    double_conjugate_grid(log_utility(), np.array([0.5, 1.0, 2.0]), n_grid=4001, n_refine=80)
    assert len(calls) == 1 + 80 + 2


def test_grid_sup_takes_the_grid_in_blocks_of_rows():
    # 4001 rows of y against 801 grid points: the peak stays far below one
    # (4001, 801) temporary
    u = log_utility()
    conjugate_grid_sup(u, Y_WIDE[:8], n_grid=801, n_refine=40)   # warm up lazy imports
    tracemalloc.start()
    try:
        conjugate_grid_sup(u, Y_WIDE, n_grid=801, n_refine=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Y_WIDE.size * 801 * 8 / 4


def test_double_conjugate_recovers_log_utility():
    xs = np.array([0.3, 1.0, 4.0])
    assert np.all(np.abs(double_conjugate_grid(log_utility(), xs) - np.log(xs)) <= 1e-6)


def test_big_x_closed_form_for_log_ignores_sampling():
    u = log_utility()
    est = big_X(4.0, np.random.default_rng(0).lognormal(size=50), u)
    assert est.value == 0.25
    assert est.exact and est.stderr == 0.0


def test_big_x_power_matches_lognormal_moment():
    # H lognormal: E[H I(yH)] = y^a E[H^{1+a}] with a = 1/(delta-1)
    delta, y, mu, s = 0.2, 0.7, -0.02, 0.3
    a = 1.0 / (delta - 1.0)
    rng = np.random.default_rng(123)
    H = np.exp(mu + s * rng.standard_normal(200_000))
    est = big_X(y, H, power_utility(delta))
    exact = y**a * np.exp((1 + a) * mu + 0.5 * ((1 + a) * s) ** 2)
    assert not est.exact
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_lagrange_multiplier_log_is_reciprocal_budget():
    u = log_utility()
    H = np.random.default_rng(5).lognormal(size=100)
    for x0 in (0.5, 1e6):
        y_star = lagrange_multiplier(x0, H, u)
        assert y_star == pytest.approx(1.0 / x0, rel=1e-9)


def test_lagrange_multiplier_saturates_budget_for_power():
    u = power_utility(0.2)
    rng = np.random.default_rng(9)
    H = np.exp(0.25 * rng.standard_normal(4000) - 0.03)
    y_star = lagrange_multiplier(2.5, H, u)
    assert big_X(y_star, H, u).value == pytest.approx(2.5, rel=1e-8)


def test_optimal_terminal_wealth_log_closed_form():
    u = log_utility()
    rng = np.random.default_rng(11)
    H = np.exp(0.4 * rng.standard_normal(2000) - 0.08)
    xi = optimal_terminal_wealth(3.0, H, u)
    assert np.allclose(xi, 3.0 / H, rtol=1e-12)
    assert np.mean(H * xi) == pytest.approx(3.0, rel=1e-12)


def test_optimal_terminal_wealth_rejects_bad_density():
    with pytest.raises(ModelError):
        optimal_terminal_wealth(1.0, np.array([0.5, -0.1]), log_utility())


def test_closed_forms_flat_market():
    p = MarketParams(d=1, n_steps=16, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0, m=0.0,
                     r=0.0, k=1.0, F0=100.0, beta0=0.0)
    theta = np.zeros((8, 16, 1))
    dW = np.sqrt(p.delta_t) * np.random.default_rng(0).standard_normal((8, 16, 1))
    rep = log_optimal_closed_forms(theta, dW, p, x0=7.0)
    assert np.all(rep.xi_T == 7.0)
    assert rep.value_mc == pytest.approx(np.log(7.0), abs=1e-15)
    assert rep.value_half == rep.value_flat == pytest.approx(np.log(7.0))


def _closed_forms_whole_array(theta_hat, dW, p, x0):
    """The closed forms as a whole-array pass: the full wealth path xi, then
    (xi, value_mc, value_mc_stderr, value_half, value_flat)."""
    rate = (1.0 - p.m) * p.r
    a = np.einsum("...i,...i->...", theta_hat, dW)
    q = np.einsum("...i,ij,...j->...", theta_hat, p.rho, theta_hat) * p.delta_t
    increments = rate * p.delta_t + 0.5 * q + a
    log_xi = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=log_xi[..., 1:])
    xi = x0 * np.exp(log_xi)
    samples = np.atleast_1d(np.log(x0) + log_xi[..., -1]).ravel()
    se = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    interest = rate * p.delta_t * q.shape[-1]
    q_sum = float(q.reshape(-1, q.shape[-1]).sum(axis=-1).mean())
    return (xi, float(samples.mean()), se,
            float(np.log(x0) + interest + 0.5 * q_sum), float(np.log(x0) + interest + q_sum))


@pytest.mark.parametrize("layout", ["step_major", "contiguous"])
@pytest.mark.parametrize("n_paths", [1, 64])
@pytest.mark.parametrize("market", ["p1", "p2"])
def test_closed_forms_bit_equal_to_whole_array_pass(market, n_paths, layout, request):
    # theta_hat as duality-report builds it; dW either as the batch stores
    # it (a transposed view of step-major memory) or C-contiguous.
    p = request.getfixturevalue(market).with_updates(m=0.2, r=0.03)
    batch = simulate_batch(p, 3, n_paths)
    theta = relative_risk(run_filter_batch(batch.delta_R(), p).beta_hat[:, : p.n_steps], p)
    dW = batch.dW if layout == "step_major" else np.ascontiguousarray(batch.dW)

    rep = log_optimal_closed_forms(theta, dW, p, x0=7.0)
    xi, value_mc, se, value_half, value_flat = _closed_forms_whole_array(theta, dW, p, 7.0)
    assert rep.value_mc == value_mc
    assert rep.value_mc_stderr == se
    assert rep.value_half == value_half
    assert rep.value_flat == value_flat
    assert np.array_equal(rep.xi_T, xi[..., -1])


def test_value_forms_differ_by_half_quadratic():
    p = MarketParams(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0, m=0.0,
                     r=0.0, k=1.0, F0=100.0, beta0=0.08)
    n_paths = 100_000
    rng = np.random.default_rng(42)
    dW = np.sqrt(p.delta_t) * rng.standard_normal((n_paths, 252, 1))
    theta = np.full((n_paths, 252, 1), 0.4)
    rep = log_optimal_closed_forms(theta, dW, p, x0=1.0)

    # accumulated quadratic form is theta^2 T = 0.16
    assert rep.value_half == pytest.approx(0.08, rel=1e-12)
    assert rep.value_flat == pytest.approx(0.16, rel=1e-12)
    # Monte Carlo arbitrates in favour of the compensated form
    assert abs(rep.value_mc - rep.value_half) <= 3.0 * rep.value_mc_stderr
    assert rep.flat_minus_mc == pytest.approx(0.08, abs=3.0 * rep.value_mc_stderr)
    assert rep.xi_T.shape == (n_paths,)


def test_probe_self_comparison_is_null(tmp_path, monkeypatch):
    import futopt.experiments as experiments

    # every perturbation is a clone of the base: each paired difference is exactly 0
    monkeypatch.setattr(experiments, "ScaledStrategy", lambda strategy, scale: strategy)
    monkeypatch.setattr(experiments, "LaggedEstimateStrategy", lambda strategy, lag: strategy)
    cfg = config_from_dict({
        "experiment": "optimality-probe",
        "market": {"d": 1, "n_steps": 16, "sigma": 0.2, "beta0": 0.08,
                   "alpha": -0.5, "varsigma": 0.1, "f": 50.0,
                   "c_spread": 0.0, "m": 0.0, "r": 0.0},
        "mc": {"n_paths": 256, "seed": 0},
    })
    run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "optimality_probe.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "base"
    assert all(row[2:] == rows[1][2:] for row in rows[2:])
    summary = json.loads((tmp_path / "probe_summary.json").read_text())
    assert set(summary) == {"scaled_0.5", "scaled_1.5", "lagged_5"}
    for clone in summary.values():
        assert clone["diff_vs_base"] == 0.0
        assert clone["diff_stderr"] == 0.0
        assert not clone["base_dominates"]


def test_probe_errors():
    with pytest.raises(ModelError):
        big_X(0.0, np.ones(3), log_utility())
    with pytest.raises(ModelError):
        lagrange_multiplier(-1.0, np.ones(3), log_utility())
    with pytest.raises(ModelError):
        conjugate(log_utility(), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_fenchel_young_holds_pointwise(x, y):
    for u in (log_utility(), power_utility(0.2)):
        gap = float(conjugate(u, y) + x * y - u.u(np.asarray(x)))
        assert gap >= -1e-9 * max(1.0, abs(gap))
