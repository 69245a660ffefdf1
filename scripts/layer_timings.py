#!/usr/bin/env python3
"""Best-of-K wall time of each futopt layer, in one process.

Example:

    python scripts/layer_timings.py --paths 8192 --steps 252 --repeat 5

Runs every layer on one simulated batch of the configs/daily_backtest.yaml
market (d = 1), with n_steps set to --steps, and prints one JSON object of
seconds, each the best of --repeat calls:

- simulate_batch, run_filter_batch, and LogOptimalStrategy.weights over
  every row of the filter's estimate;
- run_backtest with its own filter pass, and with the estimate given, with
  (theta_max = 10, the config default) and without the state price density;
- the same given-estimate run with the density at d = 2, on the
  configs/two_asset_measure.yaml market, and at d = 1 with gearing k = 50,
  where most paths are absorbed at zero wealth (absorbed_fraction says how
  many);
- build_measure_state on the whole batch, duality-report's value
  arbitration (its own batch of --paths paths, filtered as it goes),
  double_conjugate_grid for 3 x, conjugate_grid_sup over that call's
  4001-point y grid (the U~ build), and _write_csv of one ledger.

Next to the seconds, grid_sup_calls counts the conjugate_grid_sup calls that
the double_conjugate_grid_3x row makes, a number that does not vary by run.

BLAS runs on one thread unless the environment says otherwise, so the
numbers compare across hosts with different core counts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from futopt import (
    LogOptimalStrategy,
    build_measure_state,
    conjugate_grid_sup,
    double_conjugate_grid,
    log_utility,
    relative_risk,
    run_backtest,
    run_filter_batch,
    simulate_batch,
    utility,
)
from futopt.config import load_config
from futopt.experiments import _ledger_rows, _value_arbitration, _write_csv
from futopt.strategies import StrategyObs
from futopt.trading import contract_price

ROOT = Path(__file__).resolve().parents[1]


def best_of(repeat: int, fn) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def grid_sup_calls(fn) -> int:
    """How many conjugate_grid_sup calls fn makes through futopt.utility."""
    real, calls = utility.conjugate_grid_sup, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    utility.conjugate_grid_sup = counted
    try:
        fn()
    finally:
        utility.conjugate_grid_sup = real
    return len(calls)


def all_weights(batch, beta_hat, params, x0: float) -> None:
    """LogOptimalStrategy.weights on every row, at wealth x0 from flat."""
    strategy = LogOptimalStrategy()
    strategy.reset(batch.n_paths, params)
    X, P_prev = np.full(batch.n_paths, x0), np.zeros((batch.n_paths, params.d))
    for i in range(params.n_steps):
        F = batch.F[:, i]
        strategy.weights(StrategyObs(n=i, t=float(batch.t_grid[i]), F=F, C=contract_price(F, params.f),
                                     X=X, P_prev=P_prev, beta_hat=beta_hat[:, i]))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--paths", type=int, default=8192)
    ap.add_argument("--steps", type=int, default=252)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    cfg = load_config(ROOT / "configs" / "daily_backtest.yaml")
    params = cfg.market.with_updates(n_steps=args.steps)
    x0, theta_max, seed = cfg.strategy.x0, cfg.strategy.theta_max, cfg.mc.seed
    d2 = load_config(ROOT / "configs" / "two_asset_measure.yaml").market.with_updates(n_steps=args.steps)
    geared = params.with_updates(k=np.array([50.0]))

    batch = simulate_batch(params, seed, args.paths)
    beta_hat = run_filter_batch(batch.delta_R(), params).beta_hat
    batch2 = simulate_batch(d2, seed, args.paths)
    beta_hat2 = run_filter_batch(batch2.delta_R(), d2).beta_hat
    theta = relative_risk(batch.beta[:, :-1], params)
    ledger = run_backtest(batch, LogOptimalStrategy(), params, x0, beta_hat=beta_hat, theta_max=theta_max)
    absorbed = run_backtest(batch, LogOptimalStrategy(), geared, x0, beta_hat=beta_hat, theta_max=theta_max)
    xs, y_grid = np.array([0.5, 1.0, 2.0]), np.geomspace(1e-8, 1e8, 4001)
    r = args.repeat

    def dcg_3x():
        return double_conjugate_grid(log_utility(), xs)

    with tempfile.TemporaryDirectory() as tmp:
        ledger_csv = Path(tmp) / "ledger_0000.csv"
        seconds = {
            "simulate_batch": best_of(r, lambda: simulate_batch(params, seed, args.paths)),
            "run_filter_batch": best_of(r, lambda: run_filter_batch(batch.delta_R(), params)),
            "strategy_weights": best_of(r, lambda: all_weights(batch, beta_hat, params, x0)),
            "run_backtest_own_filter": best_of(r, lambda: run_backtest(
                batch, LogOptimalStrategy(), params, x0, theta_max=theta_max)),
            "run_backtest_given_density": best_of(r, lambda: run_backtest(
                batch, LogOptimalStrategy(), params, x0, beta_hat=beta_hat, theta_max=theta_max)),
            "run_backtest_given_no_density": best_of(r, lambda: run_backtest(
                batch, LogOptimalStrategy(), params, x0, beta_hat=beta_hat)),
            "run_backtest_given_density_d2": best_of(r, lambda: run_backtest(
                batch2, LogOptimalStrategy(), d2, x0, beta_hat=beta_hat2, theta_max=theta_max)),
            "run_backtest_given_density_absorbed": best_of(r, lambda: run_backtest(
                batch, LogOptimalStrategy(), geared, x0, beta_hat=beta_hat, theta_max=theta_max)),
            "build_measure_state": best_of(r, lambda: build_measure_state(theta, batch.dW, params, theta_max)),
            "value_arbitration": best_of(r, lambda: _value_arbitration(
                params, seed, args.paths, x0, cfg.strategy.p_cov0)),
            "double_conjugate_grid_3x": best_of(r, dcg_3x),
            "grid_sup_4001": best_of(r, lambda: conjugate_grid_sup(
                log_utility(), y_grid, n_grid=801, n_refine=40)),
            "write_csv_ledger": best_of(r, lambda: _write_csv(ledger_csv, *_ledger_rows(ledger))),
        }

    print(json.dumps({
        "paths": args.paths,
        "steps": args.steps,
        "repeat": r,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "absorbed_fraction": float(absorbed.dead.mean()),
        "seconds": {name: round(s, 6) for name, s in seconds.items()},
        "grid_sup_calls": {"double_conjugate_grid_3x": grid_sup_calls(dcg_3x)},
    }, indent=1))


if __name__ == "__main__":
    main()
