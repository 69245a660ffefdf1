import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bulk_draws, traced_peaks
from futopt import (
    ConstantWeightStrategy,
    LaggedEstimateStrategy,
    LogOptimalStrategy,
    MarketParams,
    ModelError,
    ZeroStrategy,
    build_batch,
    build_measure_state,
    realized_monetary_vol,
    relative_risk,
    run_backtest,
    run_filter_batch,
    simulate_batch,
    simulate_drift,
    step_wealth,
    step_wealth_cash,
)
from futopt.experiments import _ledger_rows, _write_csv
from futopt.filtering import KalmanSchedule
from futopt.measure import cap_relative_risk, discount_and_density, log_martingale_step
from futopt.strategies import StrategyObs
from futopt.trading import contract_price, cost_term, position_from_weights
from futopt.wealth import EVENTS


def _params(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=0.0, varsigma=0.0, f=50.0, c_spread=0.0,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


# -- single-step recursions -------------------------------------------------

def test_step_hand_value():
    p = _params(r=0.0, m=0.0)
    # sigma dW = 0.01 via dW = 0.05
    X, violated = step_wealth(1.0, np.array([1.0]), np.array([0.08]),
                              np.array([0.0]), np.array([0.05]), p)
    assert X == pytest.approx(1.0 + 0.08 / 252 + 0.01, rel=1e-14)
    assert X == pytest.approx(1.01031746, abs=5e-9)
    assert not violated


def test_step_full_margin_no_exposure_freezes_wealth():
    p = _params(m=1.0, r=0.07)
    X, _ = step_wealth(123.0, np.zeros(1), np.array([0.1]), np.zeros(1),
                       np.array([0.3]), p)
    assert X == 123.0


def test_step_interest_only():
    p = _params(m=0.0, r=0.04)
    X, _ = step_wealth(1.0, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), p)
    assert X == pytest.approx(1.0 + 0.04 / 252, rel=1e-15)


def test_step_floors_at_zero_with_flag():
    p = _params()
    X, violated = step_wealth(1.0, np.array([5.0]), np.array([0.0]),
                              np.array([0.0]), np.array([-2.0]), p)
    assert X == 0.0
    assert violated


def test_cash_step_matches_hand_arithmetic():
    p = _params(c_spread=0.5, r=0.0)
    X, _ = step_wealth_cash(
        1_000_000.0,
        P=np.array([10.0]), P_prev=np.array([8.0]),
        delta_F=np.array([1.5]), params=p,
    )
    # gains 10*50*1.5 = 750; slippage 0.5*0.5*50*2 = 25
    assert X == pytest.approx(1_000_000.0 + 750.0 - 25.0, rel=1e-15)


# -- dual-form equivalence --------------------------------------------------

def test_wealth_forms_agree_on_1000_random_steps():
    """Relative-cost and cash-cost recursions stay within 1e-10 of each other
    when positions are derived from weights with no rounding or caps."""
    rho = np.array([[1.0, 0.25], [0.25, 1.0]])
    sigma = np.array([[0.2, 0.0], [0.05, 0.3]])
    p = _params(d=2, sigma=sigma, rho=rho, f=np.array([50.0, 10.0]),
                c_spread=np.array([0.4, 0.1]), m=0.3, r=0.05,
                k=np.array([1.5, 1.0]), F0=np.array([100.0, 80.0]),
                beta0=np.array([0.0, 0.0]), n_steps=1000)
    rng = np.random.default_rng(12)
    L = np.linalg.cholesky(rho)

    X_cash = X_rel = 1_000_000.0
    F = p.F0.copy()
    P_prev = np.zeros(2)
    from futopt import contract_price, cost_term, position_from_weights

    for _ in range(1000):
        dW = np.sqrt(p.delta_t) * (L @ rng.standard_normal(2))
        beta = rng.uniform(-0.3, 0.3, size=2)
        sign = rng.choice([-1.0, 1.0], size=2)
        pi = sign * rng.uniform(0.1, 1.2, size=2)

        dR = beta * p.delta_t + sigma @ dW
        C = contract_price(F, p.f)
        P, _ = position_from_weights(X_cash, pi, C, p.k)
        c_tilde, flagged = cost_term(P, P_prev, C, p)
        assert not flagged.any()

        delta_F = F * dR
        X_cash, v1 = step_wealth_cash(X_cash, P, P_prev, delta_F, p)
        pi_eff = p.k * pi
        X_rel = X_rel * (
            1.0 + (1.0 - p.m) * p.r * p.delta_t
            + pi_eff @ dR - pi_eff @ c_tilde * p.delta_t
        )
        assert not v1
        assert abs(X_rel - X_cash) <= 1e-10 * X_cash

        F = F * (1.0 + dR)
        P_prev = P


# -- backtest engine --------------------------------------------------------

def test_zero_strategy_full_margin_preserves_wealth():
    p = _params(m=1.0, r=0.08, c_spread=0.5)
    path = simulate_batch(p, 0, 1)
    ledger = run_backtest(path, ZeroStrategy(), p, x0=5000.0)
    assert np.all(ledger.X == 5000.0)
    assert {name: int(c.sum()) for name, c in ledger.events.items()} == {
        "admissibility_violations": 0, "clip_events": 0, "cash_cost_fallbacks": 0}


def test_deterministic_path_matches_geometric_recursion():
    # sigma = 0, zero cost: X_{n+1} = X_n (1 + (1-m) r dt + pi beta0 dt)
    p = _params(sigma=0.0, varsigma=0.0, beta0=0.06, m=0.25, r=0.04,
                c_spread=0.0, n_steps=300)
    path = simulate_batch(p, 0, 1)
    pi = 0.8
    ledger = run_backtest(path, ConstantWeightStrategy([pi]), p, x0=1.0)
    g = 1.0 + (1.0 - 0.25) * 0.04 * p.delta_t + pi * 0.06 * p.delta_t
    oracle = g ** np.arange(301)
    assert np.allclose(ledger.X[0], oracle, rtol=1e-12)


def test_wealth_linearity_in_x0_is_exact():
    p = _params(varsigma=0.1, alpha=-0.5, c_spread=0.3, m=0.1, r=0.02)
    path = simulate_batch(p, 33, 1)
    strat = LogOptimalStrategy(mode="soft_threshold")
    a = run_backtest(path, strat, p, x0=1e6)
    b = run_backtest(path, LogOptimalStrategy(mode="soft_threshold"), p, x0=2e6)
    assert np.array_equal(b.X, 2.0 * a.X)
    assert np.array_equal(b.book.P, 2.0 * a.book.P)
    assert np.array_equal(b.book.pi, a.book.pi)


def test_more_slippage_never_helps_on_fixed_path():
    base = _params(c_spread=0.0, varsigma=0.1, alpha=-0.5)
    path = simulate_batch(base, 7, 1)
    terminals = []
    for c in (0.0, 0.2, 1.0):
        p = base.with_updates(c_spread=c)
        ledger = run_backtest(path, ConstantWeightStrategy([0.9]), p, x0=1e6)
        terminals.append(ledger.X_T[0])
    assert terminals[0] >= terminals[1] >= terminals[2]


def test_admissibility_violation_absorbs_at_zero():
    p = _params(n_steps=128)
    path = simulate_batch(p, 2, 1)
    ledger = run_backtest(path, ConstantWeightStrategy([500.0]), p, x0=1.0)
    assert ledger.events["admissibility_violations"].tolist() == [1]   # once: then absorbed
    assert ledger.dead[0]
    death = int(np.argmax(ledger.X[0] == 0.0))
    assert np.all(ledger.X[0, death:] == 0.0)
    # no positions after absorption
    assert np.all(ledger.book.P[0, death:] == 0.0)


def test_near_zero_position_routes_cash_cost():
    # a few dollars of wealth cannot buy one contract: the relative cost is
    # undefined there, the cash charge still applies
    p = _params(c_spread=0.5, n_steps=64)
    path = simulate_batch(p, 3, 1)
    ledger = run_backtest(path, ConstantWeightStrategy([0.9]), p, x0=500.0)
    assert ledger.events["cash_cost_fallbacks"][0] == np.isnan(ledger.book.c_tilde).sum() > 0
    assert np.all(ledger.book.cash_cost >= 0.0)


def test_cap_event_recorded():
    p = _params(n_steps=32)
    path = simulate_batch(p, 5, 1)
    ledger = run_backtest(path, ConstantWeightStrategy([2.0]), p, x0=1e6,
                          cap=np.array([50.0]))
    assert ledger.events["clip_events"][0] == ledger.book.clipped.sum() > 0
    assert np.all(np.abs(ledger.book.P) <= 50.0)


def _same(a, b, exact):
    """Bit-equal, or equal to 1e-12 relative where BLAS may round differently."""
    if exact or a.dtype == bool:
        return np.array_equal(a, b, equal_nan=a.dtype != bool)
    return np.allclose(a, b, rtol=1e-12, atol=0.0, equal_nan=True)


TWO_ASSET = MarketParams(
    d=2, n_steps=40, delta_t=1.0 / 252, sigma=[[0.2, 0.05], [0.0, 0.25]],
    rho=[[1.0, 0.3], [0.3, 1.0]], alpha=-0.5, varsigma=0.1, f=[50.0, 1000.0],
    c_spread=[0.001, 0.0002], m=0.1, r=0.02, k=1.0, F0=[100.0, 2.0], beta0=[0.08, -0.04],
)


def _one_asset_costly():
    return _params(varsigma=0.1, alpha=-0.5, c_spread=0.001, m=0.1, r=0.02, n_steps=40)


def test_batch_matches_single_paths():
    # The ledger holds path 0's full record and every path's terminal state;
    # both must be what a run on a batch of one holding that path records.
    # Path i's full record is reached by rolling it into row 0.  At d = 1
    # that is bit for bit: every row x matrix product there is an elementwise
    # multiply, which no BLAS call rounds.  At d >= 2 OpenBLAS picks its
    # small-matmul kernel by row count and operand layout, so a one-row
    # product can differ from the same row of a batch product in the last bit.
    names = ("C", "pi", "P", "trade", "c_tilde", "cash_cost", "clipped")
    for p in (_one_asset_costly(), TWO_ASSET):
        n, d = p.n_steps, p.d
        batch = simulate_batch(p, 11, 5)
        _, dW2 = bulk_draws(p, 11, 5)
        b_ledger = run_backtest(batch, LogOptimalStrategy(), p, x0=1e6)
        b_beta_hat = run_filter_batch(batch.delta_R(), p).beta_hat   # what the loop read
        assert b_ledger.X.shape == (1, n + 1)
        assert b_ledger.X_T.shape == b_ledger.dead.shape == (5,)
        assert b_beta_hat.shape == (5, n + 1, d)
        for name in names:
            assert getattr(b_ledger.book, name).shape == (1, n, d)
        traded = 0
        for i in range(5):
            one = build_batch(p, batch.dW[i : i + 1], simulate_drift(p, dW2[i : i + 1]))
            s_ledger = run_backtest(one, LogOptimalStrategy(), p, x0=1e6)
            rows = slice(i, i + 1)
            assert _same(b_ledger.X_T[rows], s_ledger.X_T, d == 1)
            assert np.array_equal(b_ledger.dead[rows], s_ledger.dead)
            assert _same(b_beta_hat[rows], run_filter_batch(one.delta_R(), p).beta_hat, d == 1)
            if i not in (0, 2, 4):
                continue
            rolled = build_batch(p, np.roll(batch.dW, -i, axis=0), simulate_drift(p, np.roll(dW2, -i, axis=0)))
            r_ledger = run_backtest(rolled, LogOptimalStrategy(), p, x0=1e6)
            assert _same(r_ledger.X_T, np.roll(b_ledger.X_T, -i), d == 1)
            assert _same(r_ledger.X, s_ledger.X, d == 1)
            assert r_ledger.X[0, -1] == r_ledger.X_T[0]
            for name in names:
                assert _same(getattr(r_ledger.book, name), getattr(s_ledger.book, name), d == 1)
            traded += np.count_nonzero(r_ledger.book.cash_cost)
        assert traded > 3 * n // 4   # it trades, at a cost


def test_ledger_history_does_not_grow_with_paths():
    p = _one_asset_costly()

    def hist_bytes(n_paths):
        ledger = run_backtest(simulate_batch(p, 3, n_paths), LogOptimalStrategy(), p, x0=1e6)
        book = ledger.book
        assert ledger.X_T.shape == (n_paths,)
        return sum(a.nbytes for a in (ledger.X, book.C, book.pi, book.P, book.trade,
                                      book.c_tilde, book.cash_cost, book.clipped))

    assert hist_bytes(4) == hist_bytes(400)


def test_step_major_memory_budget():
    # Peak traced memory in units of one (n_paths, N + 1, d) float array.
    # The batch is four units (F, R, beta, dW): the drift noise is freed once
    # beta is built, before the price noise is drawn.  A step-major build
    # allocates little beyond them, and a backtest adds only rows: it steps
    # the filter itself, one row of returns and estimates at a time (4.4).
    # Filtering the whole batch first adds the returns, the estimates and
    # the innovations (three units, 7.05); a whole-array path-major build,
    # or a backtest that copies F and the returns step-major, needs about 10.
    # A binding cap clips on most steps of every path; its events are
    # counted per path, so it costs no more memory than no cap.
    p = _params(varsigma=0.1, alpha=-0.5, c_spread=0.001, m=0.1, r=0.02, n_steps=64)

    for cap in (None, np.array([1.0])):
        def run(n, mark):
            batch = simulate_batch(p, 5, n)
            mark()
            ledger = run_backtest(batch, LogOptimalStrategy(), p, x0=1e6, cap=cap, theta_max=10.0)
            if cap is not None:
                assert ledger.events["clip_events"].sum() > n * p.n_steps // 2

        sim_peak, run_peak = traced_peaks(run, p)
        assert sim_peak <= 4.6, (cap, sim_peak)
        assert run_peak <= 4.8, (cap, run_peak)


def _reference_backtest(batch, strategy, p, x0, beta_hat=None, cap=None, integer_contracts=False,
                        theta_max=None):
    """run_backtest written out step by step from the public per-step
    functions, without its shortcuts: the oracle its ledger is pinned to.
    Returns the ledger's fields by name and every path's relative cost per
    step, (n_paths, N, d)."""
    n_paths, n_grid, d = batch.F.shape
    n = n_grid - 1
    ks = KalmanSchedule(p, n) if beta_hat is None else None
    b = np.broadcast_to(p.beta0, (n_paths, d)).copy()
    X = np.full(n_paths, float(x0))
    dead = X <= 0
    P_prev = np.zeros((n_paths, d))
    log_z, n_capped = np.zeros(n_paths), 0
    book = {name: [] for name in ("C", "pi", "P", "trade", "c_tilde", "cash_cost", "clipped")}
    X_0, Z_0, costs = [X[0]], [1.0], []
    events = {name: np.zeros(n_paths, dtype=np.int64) for name in EVENTS}
    strategy.reset(n_paths, p)
    for i in range(n):
        if beta_hat is not None:
            b = beta_hat[:, i]
        F = batch.F[:, i]
        C = contract_price(F, p.f)
        obs = StrategyObs(n=i, t=float(batch.t_grid[i]), F=F, C=C, X=X, P_prev=P_prev, beta_hat=b)
        pi = np.where(dead[:, None], 0.0, strategy.weights(obs))
        P, clipped = position_from_weights(X, pi, C, p.k, cap, integer_contracts)
        P = np.where(dead[:, None], 0.0, P)
        c_tilde, flagged = cost_term(P, P_prev, C, p)
        X_next, violated = step_wealth_cash(X, P, P_prev, batch.F[:, i + 1] - F, p)
        events["admissibility_violations"] += violated & ~dead
        events["clip_events"] += np.count_nonzero(clipped, axis=1)
        events["cash_cost_fallbacks"] += np.count_nonzero(flagged, axis=1)
        if theta_max is not None:
            theta = relative_risk(batch.beta[:, i] - np.nan_to_num(c_tilde, nan=0.0), p)
            theta, capped = cap_relative_risk(theta, theta_max)
            n_capped += capped
            log_z = log_z + log_martingale_step(theta, batch.dW[:, i], p)
            Z_0.append(np.exp(log_z[:1])[0])
        trade = P - P_prev
        rows = (C, pi, P, trade, c_tilde, 0.5 * p.c_spread * p.f * np.abs(trade), clipped)
        for name, row in zip(book, rows):
            book[name].append(row[0])
        X_0.append(X_next[0])
        costs.append(c_tilde)
        dead = dead | violated | (X_next <= 0)
        X = X_next
        P_prev = np.where(dead[:, None], 0.0, P)
        if ks is not None:
            b, _ = ks.update(b, batch.R[:, i + 1] - batch.R[:, i], i)
    gamma, H = discount_and_density(p, np.array(Z_0)) if theta_max is not None else (None, None)
    fields = {
        "t_grid": batch.t_grid, "X": np.array(X_0)[None], "X_T": X, "dead": dead, "n_capped": n_capped,
        "H_T": gamma[-1] * np.exp(log_z) if theta_max is not None else None, "gamma": gamma, "H": H,
        **{name: np.array(rows)[None] for name, rows in book.items()},
        **events,
    }
    return fields, np.stack(costs, axis=1)


def _assert_ledger_is(ledger, fields):
    """Every ledger field bit for bit, the sign of a zero and a NaN's bits included."""
    got = {name: getattr(ledger, name) for name in ("t_grid", "X", "X_T", "dead", "n_capped", "H_T", "gamma", "H")}
    got.update({name: getattr(ledger.book, name) for name in ("C", "pi", "P", "trade", "c_tilde", "cash_cost",
                                                              "clipped")})
    got.update(ledger.events)
    assert got.keys() == fields.keys()
    for name, want in fields.items():
        if want is None or np.ndim(want) == 0:
            assert got[name] == want, name
        else:
            assert got[name].shape == want.shape and got[name].dtype == want.dtype, name
            bits = np.uint64 if want.dtype == float else want.dtype
            assert np.array_equal(got[name].view(bits), want.view(bits)), name


#: (market, LogOptimalStrategy mode, run_backtest keywords, what the case must exercise)
_REFERENCE_CASES = {
    "d1-soft_threshold-theta_cap": (_one_asset_costly(), "soft_threshold", dict(theta_max=0.5), ("capped",)),
    "d1-zero_cost-caps-integer": (_one_asset_costly(), "zero_cost",
                                  dict(cap=np.array([360.0]), integer_contracts=True, theta_max=10.0), ("clipped",)),
    "d1-literal-absorbed": (_one_asset_costly().with_updates(k=np.array([20.0])), "literal",
                            dict(theta_max=np.inf), ("dead", "fallbacks")),
    "d1-zero_cost-fallbacks": (_one_asset_costly().with_updates(k=np.array([0.003])), "zero_cost",
                               dict(theta_max=10.0), ("fallbacks",)),
    "d2-soft_threshold-theta_cap": (TWO_ASSET, "soft_threshold", dict(theta_max=0.5), ("capped",)),
    "d2-zero_cost-caps-integer": (TWO_ASSET, "zero_cost",
                                  dict(cap=np.array([40.0, 1500.0]), integer_contracts=True), ("clipped",)),
    "d2-literal-absorbed": (TWO_ASSET.with_updates(k=np.array([15.0, 15.0])), "literal",
                            dict(theta_max=10.0), ("dead", "fallbacks")),
    "d2-soft_threshold-fallbacks": (TWO_ASSET.with_updates(k=np.array([0.002, 0.002])), "soft_threshold",
                                    dict(theta_max=10.0), ("fallbacks",)),
}


@pytest.mark.parametrize("given_estimate", [False, True], ids=["own_filter", "beta_hat"])
@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_backtest_matches_reference_loop(case, given_estimate):
    # The loop computes each trade once and skips every mask that selects
    # nothing; none of that may move a bit of any ledger field.  Each case
    # has steps where its mask selects some paths and steps where it selects
    # none: a share of the paths, not all, is capped, clipped, absorbed or
    # charged in cash.
    p, mode, kw, exercised = _REFERENCE_CASES[case]
    n_paths = 48
    batch = simulate_batch(p, 13, n_paths)
    beta_hat = run_filter_batch(batch.delta_R(), p).beta_hat if given_estimate else None
    ledger = run_backtest(batch, LogOptimalStrategy(mode), p, x0=1e6, beta_hat=beta_hat, **kw)
    fields, _ = _reference_backtest(batch, LogOptimalStrategy(mode), p, 1e6, beta_hat, **kw)
    _assert_ledger_is(ledger, fields)
    all_steps = n_paths * p.n_steps * p.d
    shown = {
        "capped": 0 < ledger.n_capped < n_paths * p.n_steps,
        "clipped": 0 < ledger.events["clip_events"].sum() < all_steps,
        "dead": 0 < ledger.dead.sum() < n_paths,
        "fallbacks": 0 < ledger.events["cash_cost_fallbacks"].sum() < all_steps,
    }
    assert all(shown[tag] for tag in exercised), shown


def _density_oracle(batch, p, theta_max):
    """Backtest with the in-loop density, plus build_measure_state on the
    whole batch from the relative costs the reference loop computed for
    every path."""
    ledger = run_backtest(batch, LogOptimalStrategy(), p, x0=1e6, theta_max=theta_max)
    fields, costs = _reference_backtest(batch, LogOptimalStrategy(), p, 1e6, theta_max=theta_max)
    _assert_ledger_is(ledger, fields)
    theta = relative_risk(batch.beta[:, : p.n_steps] - np.nan_to_num(costs, nan=0.0), p)
    return ledger, build_measure_state(theta, batch.dW, p, theta_max)


@pytest.mark.parametrize("p", [_one_asset_costly(), TWO_ASSET], ids=["d1", "d2"])
def test_in_loop_density_matches_measure_oracle(p):
    batch = simulate_batch(p, 5, 64)
    theta_max = 0.5   # binds on a share of the rows, not on all of them
    ledger, ms = _density_oracle(batch, p, theta_max)
    assert 0 < ledger.n_capped < 64 * p.n_steps
    assert ledger.n_capped == ms.n_capped
    assert _same(ledger.H_T, ms.H[:, -1], p.d == 1)
    assert np.array_equal(ledger.gamma, ms.gamma)
    assert _same(ledger.H, ms.H[0], p.d == 1)
    # np.inf is an uncapped density; None (the default) builds none
    uncapped, ms_inf = _density_oracle(batch, p, np.inf)
    assert uncapped.n_capped == ms_inf.n_capped == 0
    assert _same(uncapped.H_T, ms_inf.H[:, -1], p.d == 1)
    assert _same(uncapped.H, ms_inf.H[0], p.d == 1)
    none = run_backtest(batch, LogOptimalStrategy(), p, x0=1e6)
    assert none.H_T is None and none.gamma is None and none.H is None


_STREAM_CASES = {   # (market, n_paths, p_cov0, theta_max)
    "d1": (_one_asset_costly(), 32, None, 10.0),
    "d2": (TWO_ASSET, 32, None, 10.0),
    "d1-one_path": (_one_asset_costly(), 1, None, 10.0),
    "d2-one_path": (TWO_ASSET, 1, None, 10.0),
    "d1-p_cov0": (_one_asset_costly(), 32, 0.02, 10.0),
    "d2-p_cov0": (TWO_ASSET, 32, [[0.4, 0.1], [0.1, 0.3]], 10.0),
    "d1-theta_cap": (_one_asset_costly(), 32, None, 0.5),
    "d2-theta_cap": (TWO_ASSET, 32, 0.4, 0.5),
}


@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_given_estimate_matches_the_loops_own_filter(case):
    # The loop's own filter, stepped a row at a time, against the whole-batch
    # filter's estimate handed in: every ledger field bit for bit.  The
    # lagged policy keeps the rows it was handed and trades on one three
    # steps old, so it matches only if every row the loop hands out is its
    # own array, never overwritten by a later step.
    p, n_paths, p_cov0, theta_max = _STREAM_CASES[case]
    batch = simulate_batch(p, 7, n_paths)
    beta_hat = run_filter_batch(batch.delta_R(), p, p_cov0).beta_hat
    for make in (LogOptimalStrategy, lambda: LaggedEstimateStrategy(LogOptimalStrategy(), lag=3)):
        own = run_backtest(batch, make(), p, x0=1e6, theta_max=theta_max, p_cov0=p_cov0)
        given = run_backtest(batch, make(), p, x0=1e6, beta_hat=beta_hat, theta_max=theta_max)
        for name in ("X", "X_T", "dead", "H_T", "gamma", "H"):
            assert np.array_equal(getattr(own, name), getattr(given, name)), name
        for name in ("C", "pi", "P", "trade", "c_tilde", "cash_cost", "clipped"):
            assert np.array_equal(getattr(own.book, name), getattr(given.book, name), equal_nan=True), name
        assert own.events.keys() == given.events.keys() and own.n_capped == given.n_capped
        assert (own.n_capped > 0) == (theta_max < 1.0)
        for name, counts in own.events.items():
            assert np.array_equal(counts, given.events[name]), name
        if p_cov0 is not None:   # the prior reaches the loop's filter
            default = run_backtest(batch, make(), p, x0=1e6, theta_max=theta_max)
            assert not np.array_equal(default.X_T, own.X_T)
    with pytest.raises(ModelError, match="beta_hat must have"):
        run_backtest(batch, LogOptimalStrategy(), p, x0=1e6, beta_hat=beta_hat[:, 1:])


class _Overwriting(LogOptimalStrategy):
    """Writes into the row it was handed: one shared estimate, so it must fail."""

    def __init__(self, field):
        super().__init__()
        self.field = field

    def weights(self, obs):
        getattr(obs, self.field)[:] = 0.0
        return super().weights(obs)


@pytest.mark.parametrize("field", ["beta_hat", "F"])
def test_strategy_cannot_write_into_shared_rows(field):
    p = _one_asset_costly()
    batch = simulate_batch(p, 7, 4)
    beta_hat = run_filter_batch(batch.delta_R(), p).beta_hat
    before = beta_hat.copy(), batch.F.copy()
    with pytest.raises(ValueError, match="read-only"):
        run_backtest(batch, _Overwriting(field), p, x0=1e6, beta_hat=beta_hat)
    assert np.array_equal(beta_hat, before[0]) and np.array_equal(batch.F, before[1])


def test_strategy_cannot_write_into_the_loops_own_estimate():
    p = _one_asset_costly()
    with pytest.raises(ValueError, match="read-only"):
        run_backtest(simulate_batch(p, 7, 4), _Overwriting("beta_hat"), p, x0=1e6)


def test_in_loop_density_overflow_names_path_and_step():
    p = _params(n_steps=8)
    dW = np.full((3, 8, 1), 0.01)
    dW[1, 5, 0] = -4000.0   # -theta dW = 1600 > log(max float) at theta 0.4
    batch = build_batch(p, dW, simulate_drift(p, np.zeros_like(dW)))
    with pytest.raises(ModelError, match="step 6 on path 1"):
        run_backtest(batch, ZeroStrategy(), p, x0=1e6, theta_max=np.inf)


def test_engine_cross_checks_relative_form():
    # reconstruct the ledger with the relative-cost recursion from recorded
    # weights and costs; both forms must agree to 1e-10
    p = _params(varsigma=0.1, alpha=-0.5, c_spread=0.3, m=0.1, r=0.02)
    path = simulate_batch(p, 17, 1)
    ledger = run_backtest(path, LogOptimalStrategy(), p, x0=1e6)
    dR = path.delta_R()[0]
    X = 1e6
    for i in range(p.n_steps):
        pi_eff = p.k * ledger.book.pi[0, i]
        cost = np.nan_to_num(ledger.book.c_tilde[0, i])
        X = X * (1.0 + (1.0 - p.m) * p.r * p.delta_t + pi_eff @ dR[i]
                 - pi_eff @ cost * p.delta_t)
        assert abs(X - ledger.X[0, i + 1]) <= 1e-10 * max(X, 1.0)


def test_discounted_series_trivial_when_flat(tmp_path):
    # With r = 0 and theta = 0 (zero drift, no costs), gamma = H = 1: the
    # discounted_wealth and H_wealth columns of the wealth CSV repeat the
    # wealth column exactly.
    p = _params(r=0.0, beta0=0.0)
    path = simulate_batch(p, 1, 1)
    ledger = run_backtest(path, ConstantWeightStrategy([0.5]), p, x0=1e6, theta_max=np.inf)
    assert np.all(ledger.gamma == 1.0) and np.all(ledger.H == 1.0)
    out = tmp_path / "wealth.csv"
    _write_csv(out, *_ledger_rows(ledger))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["wealth"]) for row in rows] == ledger.X[0].tolist()
    for row in rows:
        assert row["discounted_wealth"] == row["H_wealth"] == row["wealth"]


def test_realized_vol_tracks_weight_scale():
    p = _params(n_steps=1000, varsigma=0.0)
    path = simulate_batch(p, 9, 1)
    ledger = run_backtest(path, ConstantWeightStrategy([1.0]), p, x0=1e6)
    vol = realized_monetary_vol(ledger, p, window=20)
    assert 0.1 < vol < 0.3  # pi sigma with pi=1, sigma=0.2


def test_wealth_csv_and_summary(tmp_path):
    p = _params(varsigma=0.1, c_spread=0.2, m=0.2, r=0.05, n_steps=32)
    path = simulate_batch(p, 21, 1)
    ledger = run_backtest(path, LogOptimalStrategy(), p, x0=1e6, theta_max=10.0)

    out = tmp_path / "wealth.csv"
    _write_csv(out, *_ledger_rows(ledger))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[:4] == ["time", "wealth", "discounted_wealth", "H_wealth"]
    assert len(rows) == 33  # N + 1 rows
    assert [float(row["H_wealth"]) for row in rows] == (ledger.H * ledger.X[0]).tolist()
    # without a density both columns are NaN
    _write_csv(out, *_ledger_rows(run_backtest(path, LogOptimalStrategy(), p, x0=1e6)))
    with open(out, newline="") as fh:
        assert all(row["discounted_wealth"] == row["H_wealth"] == "nan" for row in csv.DictReader(fh))

    assert set(ledger.events) == {"admissibility_violations", "clip_events", "cash_cost_fallbacks"}
    assert all(c.shape == (1,) and c.dtype.kind == "i" for c in ledger.events.values())


@settings(max_examples=20, deadline=None)
@given(st.floats(0.1, 1e8), st.integers(0, 1000))
def test_zero_exposure_full_margin_identity(x0, seed):
    p = _params(m=1.0, r=0.06, n_steps=8)
    path = simulate_batch(p, seed, 1)
    ledger = run_backtest(path, ZeroStrategy(), p, x0=x0)
    assert np.all(ledger.X == x0)
