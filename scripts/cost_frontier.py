#!/usr/bin/env python3
"""Terminal wealth of the log-optimal policy as slippage rises.

Backtests the soft-threshold policy and the cost-blind variant over a grid
of spread levels on common random numbers.  Both decline as trading gets
dearer; the (small) gap between them isolates the feasibility cutoff.
"""

import argparse
import csv
import os

import numpy as np

from futopt import LogOptimalStrategy, run_backtest, simulate_batch
from futopt.params import MarketParams


def terminal_mean(params, batch, mode, x0):
    ledger = run_backtest(batch, LogOptimalStrategy(mode=mode), params, x0)
    x_T = ledger.X_T
    return float(np.mean(np.log(np.maximum(x_T, 1e-300)))), float(x_T.mean())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", default="out/cost_frontier.csv")
    ap.add_argument("--spreads", type=float, nargs="+",
                    default=[0.0, 0.0005, 0.001, 0.002, 0.005, 0.01])
    args = ap.parse_args()

    x0 = 1e6
    rows = []
    for c in args.spreads:
        params = MarketParams(
            d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
            alpha=-0.5, varsigma=0.1, f=50.0, c_spread=c, m=0.2, r=0.03,
            k=1.0, F0=100.0, beta0=0.08,
        )
        # same seed per spread level: differences are pure cost effects
        batch = simulate_batch(params, args.seed, args.paths)
        for mode in ("soft_threshold", "zero_cost"):
            mean_log, mean_x = terminal_mean(params, batch, mode, x0)
            rows.append((c, mode, mean_log, mean_x))
            print(f"c = {c:7.4f}  {mode:14s}  E[log X_T] = {mean_log:.5f}  "
                  f"E[X_T] = {mean_x:,.0f}")

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c_spread", "mode", "mean_log_terminal", "mean_terminal"])
        for c, mode, mean_log, mean_x in rows:
            writer.writerow([repr(float(c)), mode, repr(mean_log), repr(mean_x)])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
