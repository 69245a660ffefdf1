"""Release acceptance battery: eleven end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline.  Sizes are desk scale (at most 1e5 paths); every statistical check
uses a three-standard-error band around its target.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import neutrality_diagnostics
from futopt import (
    ConstantWeightStrategy,
    LogOptimalStrategy,
    MarketParams,
    RandomBoundedStrategy,
    ZeroStrategy,
    big_X,
    build_batch,
    build_measure_state,
    conjugate,
    conjugate_grid_sup,
    contract_price,
    cost_term,
    exponential_martingale,
    load_config,
    log_optimal_closed_forms,
    log_utility,
    position_from_weights,
    power_utility,
    relative_risk,
    run_backtest,
    run_chunked,
    run_experiment,
    run_filter_batch,
    simulate_batch,
    simulate_drift,
    step_wealth_cash,
    validate_utility,
)


def _verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def _mk(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=0.0, varsigma=0.0, f=50.0, c_spread=0.0,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


RHO2 = np.array([[1.0, 0.3], [0.3, 1.0]])


def test_c01_density_martingale():
    """Constant-premium exponential density averages to one over 1e5 paths."""
    t0 = time.monotonic()
    p = _mk(d=2, rho=RHO2, sigma=0.25, f=np.array([50.0, 50.0]),
            F0=np.array([100.0, 100.0]), beta0=np.array([0.0, 0.0]))
    theta = np.array([0.3, 0.4])            # norm 0.5
    L = p.rho_cholesky()

    def chunk(seed_seq, n):
        rng = np.random.default_rng(seed_seq)
        z = rng.standard_normal((n, p.n_steps, 2))
        dW = np.sqrt(p.delta_t) * z @ L.T
        Z = exponential_martingale(np.broadcast_to(theta, dW.shape), dW, p)
        return {"Z_T": Z[:, -1]}, None

    stats, _ = run_chunked(100_000, 12, chunk)
    m = stats["Z_T"]
    elapsed = time.monotonic() - t0
    ok = abs(m.mean - 1.0) <= 3.0 * m.stderr and elapsed <= 60.0
    _verdict(
        "C1 change-of-measure density is a martingale",
        ok,
        f"E[Z_T] = {m.mean:.5f} ± {m.stderr:.5f} (z = {m.z_score(1.0):+.2f}), {elapsed:.1f}s",
    )


def test_c02_innovations_market_neutral():
    """On a 1e5-step path the innovations are mean-zero with covariance
    rho dt and no correlation with price levels."""
    p = _mk(d=2, n_steps=100_000, rho=RHO2, sigma=0.2, alpha=-0.5,
            varsigma=0.1, f=np.array([50.0, 50.0]),
            F0=np.array([100.0, 100.0]), beta0=np.array([0.05, -0.05]))
    path = simulate_batch(p, 7, 1)
    hist = run_filter_batch(path.delta_R(), p)
    rows = neutrality_diagnostics(hist, path, p)

    n = p.n_steps
    mean_bound = 3.0 * np.sqrt(p.delta_t / n)
    worst = {"innovation_mean": 0.0, "innovation_cov_error": 0.0,
             "innovation_price_corr": 0.0}
    ok = True
    for metric, _comp, value, stderr in rows:
        if metric == "innovation_mean":
            ok &= abs(value) <= mean_bound
            worst[metric] = max(worst[metric], abs(value) / mean_bound)
        elif metric == "innovation_cov_error":
            ok &= abs(value) <= 3.0 * stderr
            worst[metric] = max(worst[metric], abs(value) / (3.0 * stderr))
        else:
            ok &= abs(value) < 0.05
            worst[metric] = max(worst[metric], abs(value))
    _verdict(
        "C2 innovations are market-neutral noise",
        ok,
        f"worst mean ratio {worst['innovation_mean']:.2f}, worst cov ratio "
        f"{worst['innovation_cov_error']:.2f}, max |corr| {worst['innovation_price_corr']:.3f}",
    )


def test_c03_filter_matches_joint_gaussian_conditioning():
    """Ten-step recursive estimate equals brute-force conditioning to 1e-8."""
    p = _mk(n_steps=10, alpha=-0.4, varsigma=0.15)
    delta_R = simulate_batch(p, 101, 1).delta_R()
    p0, b0 = 0.02, 0.05
    hist = run_filter_batch(delta_R, p.with_updates(beta0=b0), p_cov0=np.array([[p0]]))

    # Brute force: assemble Cov(beta_N, dR_0..dR_9) and condition directly.
    n, dt = 10, p.delta_t
    a = 1.0 + p.alpha[0, 0] * dt
    var_beta = np.empty(n + 1)
    var_beta[0] = p0
    for i in range(n):
        var_beta[i + 1] = a * a * var_beta[i] + p.varsigma[0, 0] ** 2 * dt
    cov_bb = np.array([[a ** abs(i - j) * var_beta[min(i, j)]
                        for j in range(n + 1)] for i in range(n + 1)])
    cov_rr = cov_bb[:n, :n] * dt * dt + p.sigma[0, 0] ** 2 * dt * np.eye(n)
    cov_tr = cov_bb[n, :n] * dt
    mean_beta = b0 * a ** np.arange(n + 1)
    w = np.linalg.solve(cov_rr, delta_R[0, :, 0] - mean_beta[:n] * dt)
    oracle = mean_beta[n] + cov_tr @ w

    rel = abs(hist.beta_hat[0, -1, 0] - oracle) / abs(oracle)
    ok = rel <= 1e-8
    _verdict("C3 filter equals joint-Gaussian conditioning", ok,
             f"relative gap {rel:.2e}")


def test_c04_budget_constraint_across_strategies():
    """Deflated terminal wealth never beats the budget; the log-optimal
    policy attains it."""
    p = _mk(d=2, n_steps=64, rho=RHO2, sigma=0.25, alpha=-0.5, varsigma=0.1,
            f=np.array([50.0, 1000.0]), m=0.2, r=0.03,
            F0=np.array([100.0, 2.0]), beta0=np.array([0.08, -0.04]))
    x0 = 1e6
    factories = {
        "zero": ZeroStrategy,
        "constant": lambda: ConstantWeightStrategy([0.3, -0.2]),
        "log_optimal": lambda: LogOptimalStrategy(mode="zero_cost"),
        "random_bounded": lambda: RandomBoundedStrategy(bound=1.0, seed=5),
    }

    def chunk(seed_seq, n):
        batch = simulate_batch(p, seed_seq, n)
        theta = relative_risk(batch.beta[:, : p.n_steps, :], p)
        ms = build_measure_state(theta, batch.dW, p)
        out = {}
        for name, make in factories.items():
            ledger = run_backtest(batch, make(), p, x0)
            out[name] = ms.H[:, -1] * ledger.X_T
        return out, None

    stats, _ = run_chunked(100_000, 3, chunk)
    ok = True
    details = []
    for name in factories:
        m = stats[name]
        ok &= m.mean <= x0 + 3.0 * m.stderr
        details.append(f"{name} z = {m.z_score(x0):+.2f}")
    ok &= abs(stats["log_optimal"].mean - x0) <= 3.0 * stats["log_optimal"].stderr
    _verdict("C4 budget constraint E[H X] <= x0 with log-optimal equality",
             ok, ", ".join(details))


def test_c05_backtest_tracks_closed_form_wealth():
    """With known constant drift and no costs, engine wealth tracks the
    exponential closed form to first order in the step size."""
    n_paths, n = 32, 252
    z = np.random.default_rng(0).standard_normal((n_paths, n, 1))

    gaps = []
    for dt in (1.0 / 252, 1.0 / 504):
        p = _mk(n_steps=n, delta_t=dt)
        dW = np.sqrt(dt) * z
        batch = build_batch(p, dW, simulate_drift(p, np.zeros((n_paths, n, 1))))
        x_T = run_backtest(batch, LogOptimalStrategy(mode="zero_cost"), p, 1.0).X_T
        xi_T = log_optimal_closed_forms(np.full((n_paths, n, 1), 0.4), dW, p, 1.0).xi_T
        gaps.append(np.max(np.abs(x_T - xi_T) / xi_T))

    ratio = gaps[1] / gaps[0]
    ok = gaps[0] <= 5.0 / 252 and 0.45 <= ratio <= 0.55
    _verdict("C5 wealth engine is first-order consistent with the closed form",
             ok, f"max gap {gaps[0]:.4f} (bound {5.0 / 252:.4f}), halving ratio {ratio:.3f}")


def test_c06_value_function_arbitration():
    """Monte Carlo arbitrates between the compensated value formula and the
    variant without the half: only the former matches."""
    p = _mk(m=0.2, r=0.03)
    n_paths, n = 50_000, 252
    dW = np.sqrt(p.delta_t) * np.random.default_rng(5).standard_normal((n_paths, n, 1))
    theta_hat = np.full((n_paths, n, 1), 0.4)
    rep = log_optimal_closed_forms(theta_hat, dW, p, x0=1.0)

    half_gap = abs(rep.value_mc - rep.value_half)
    flat_gap = abs(rep.flat_minus_mc - 0.5 * 0.16)   # theta^2 T / 2 with T = 1
    ok = half_gap <= 3.0 * rep.value_mc_stderr and flat_gap <= 3.0 * rep.value_mc_stderr
    _verdict(
        "C6 value function needs the half-quadratic compensation",
        ok,
        f"half-form gap {half_gap:.2e} (3 se = {3 * rep.value_mc_stderr:.2e}), "
        f"uncompensated form off by {rep.flat_minus_mc:.4f} ~ 0.0800",
    )


def test_c07_cost_term_value_and_scaling():
    """Slippage hand value 0.1260 and exact growth like 1/dt."""
    p = _mk(c_spread=0.5, f=50.0, F0=100.0)
    C = contract_price(p.F0, p.f)            # 5000
    c_tilde, _ = cost_term(np.array([10.0]), np.array([8.0]), C, p)
    hand_ok = c_tilde[0] == pytest.approx(0.1260, rel=1e-12)

    products = []
    for dt in (1.0 / 52, 1.0 / 252, 1.0 / 2520):
        ct, _ = cost_term(np.array([10.0]), np.array([8.0]), C,
                          p.with_updates(delta_t=dt))
        products.append(ct[0] * dt)
    scale_ok = all(abs(v - products[0]) <= 1e-12 * abs(products[0]) for v in products)
    _verdict("C7 cost term hand value and 1/dt scaling", hand_ok and scale_ok,
             f"c_tilde = {c_tilde[0]:.4f}, c_tilde * dt spread "
             f"{max(products) - min(products):.2e}")


def test_c08_wealth_form_equivalence():
    """Relative-cost and cash-cost recursions agree to 1e-10 over 1e3 steps."""
    p = _mk(d=2, rho=RHO2, sigma=np.array([[0.2, 0.0], [0.05, 0.3]]),
            f=np.array([50.0, 10.0]), c_spread=np.array([0.4, 0.1]),
            m=0.3, r=0.05, k=np.array([1.5, 1.0]),
            F0=np.array([100.0, 80.0]), beta0=np.array([0.0, 0.0]))
    rng = np.random.default_rng(77)
    L = p.rho_cholesky()
    X_cash = X_rel = 1e6
    F = p.F0.copy()
    P_prev = np.zeros(2)
    worst = 0.0
    for _ in range(1000):
        dW = np.sqrt(p.delta_t) * (L @ rng.standard_normal(2))
        beta = rng.uniform(-0.3, 0.3, 2)
        pi = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.1, 1.2, 2)
        dR = beta * p.delta_t + p.sigma @ dW
        C = contract_price(F, p.f)
        P, _ = position_from_weights(X_cash, pi, C, p.k)
        c_tilde, _ = cost_term(P, P_prev, C, p)
        X_cash, _ = step_wealth_cash(X_cash, P, P_prev, F * dR, p)
        pi_eff = p.k * pi
        X_rel *= (1.0 + (1.0 - p.m) * p.r * p.delta_t
                  + pi_eff @ dR - pi_eff @ c_tilde * p.delta_t)
        worst = max(worst, abs(X_rel - X_cash) / X_cash)
        F, P_prev = F * (1.0 + dR), P
    ok = worst <= 1e-10
    _verdict("C8 wealth recursions agree across cost forms", ok,
             f"max relative gap {worst:.2e}")


def test_c09_duality_battery():
    """Conjugates, inequalities, marginals, and the log budget closed form."""
    ok = True
    details = []
    for u in (log_utility(), power_utility(0.2)):
        gaps = [abs(float(conjugate(u, y)) - conjugate_grid_sup(u, y))
                for y in np.geomspace(0.05, 20.0, 9)]
        ok &= max(gaps) <= 1e-6

        x = np.geomspace(1e-4, 1e4, 100)
        y = np.geomspace(1e-4, 1e4, 100)
        rhs = conjugate(u, y)[None, :] + x[:, None] * y[None, :]
        violations = int(np.sum(u.u(x)[:, None] > rhs + 1e-12 * np.abs(rhs)))
        ok &= violations == 0

        fd_err = validate_utility(u)["marginal_fd_max_rel_err"]
        ok &= fd_err <= 1e-6
        details.append(f"{u.name}: conj gap {max(gaps):.1e}, "
                       f"{violations} violations, fd err {fd_err:.1e}")

    u = log_utility()
    exact = all(big_X(y, np.ones(1), u).value == 1.0 / y for y in (0.25, 1.0, 4.0))
    ok &= exact
    _verdict("C9 duality battery (log and power)", ok,
             "; ".join(details) + f"; log budget map exact: {exact}")


def test_c10_log_optimal_policy_dominates_scalings(tmp_path):
    """Paired 1e5-path comparison: mis-scaled variants lose decisively."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "known_drift_probe.yaml")
    assert (cfg.mc.n_paths, cfg.mc.seed) == (100_000, 9)
    run_experiment(cfg, out_dir=tmp_path)
    gaps = json.loads((tmp_path / "probe_summary.json").read_text())
    z = {name: gaps[name]["diff_vs_base"] / gaps[name]["diff_stderr"]
         for name in ("scaled_0.5", "scaled_1.5")}
    ok = all(gaps[name]["base_dominates"] for name in ("scaled_0.5", "scaled_1.5"))
    _verdict("C10 log-optimal policy dominates scaled variants", ok,
             f"z(0.5x) = {z['scaled_0.5']:+.1f}, z(1.5x) = {z['scaled_1.5']:+.1f}")


CFG_YAML = """\
experiment: backtest
market:
  d: 1
  n_steps: 32
  delta_t: 1/252
  sigma: 0.2
  alpha: -0.5
  varsigma: 0.1
  f: 50.0
  c_spread: 0.001
  m: 0.2
  r: 0.03
  F0: 100.0
  beta0: 0.08
mc:
  n_paths: 10000
  seed: 5
strategy:
  x0: 1.0e+6
"""


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file under out by relative name; the manifest without created_at."""
    blobs = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_at")
            data = json.dumps(manifest, sort_keys=True).encode()
        blobs[str(path.relative_to(out))] = data
    return blobs


def test_c11_artifacts_deterministic_across_workers(tmp_path):
    """CLI reruns of every chunked experiment write the same files with the
    same bytes for any worker count; only the manifest timestamp may differ."""
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(CFG_YAML)
    ok, details = True, []
    for experiment in ("backtest", "verify-measure", "optimality-probe"):
        runs = []
        for name, workers in (("w1", "1"), ("w4", "4"), ("w4b", "4")):
            out = tmp_path / experiment / name
            env = dict(os.environ, FUTOPT_WORKERS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "futopt", experiment,
                 "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(_artifact_bytes(out))
        same = "manifest.json" in runs[0] and runs[0] == runs[1] == runs[2]
        ok &= same
        details.append(f"{experiment} {len(runs[0])} files {'identical' if same else 'DIFFER'}")
    _verdict("C11 byte-identical artifacts at any worker count", ok,
             "1 vs 4 workers, three runs each: " + ", ".join(details))
