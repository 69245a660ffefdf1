"""Command-line entry point.

Usage::

    futopt <experiment> --config scenario.yaml [--seed 7] [--out results] [--paths 5000]

where <experiment> is one of simulate, backtest, verify-measure,
duality-report, cost-sweep, optimality-probe.  The flags override the
matching config fields for one run without touching the file; the worker
count comes from the FUTOPT_WORKERS environment variable (or mc.workers).

Exit status is 0 on success, 1 when a hard invariant check fails (the
failed checks are also written to failure_summary.json in the output
directory), and 2 on configuration errors, an unreadable config or an
unusable output directory included.  backtest, verify-measure,
duality-report and optimality-probe compare means with their standard
errors, so they exit 2 below two paths; simulate and cost-sweep run on one.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, load_config
from .errors import ConfigError, ModelError
from .experiments import run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="futopt",
        description="Simulation, filtering, and trading experiments for futures portfolios.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("--out", default=None, help="override outputs.dir")
        p.add_argument("--paths", type=int, default=None, help="override mc.n_paths")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:      # an OSError names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cfg.experiment = args.experiment
    try:
        result = run_experiment(cfg, out_dir=args.out, seed=args.seed, n_paths=args.paths)
    except (ConfigError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for check in result.checks:
        mark = "ok" if check["passed"] else "FAIL"
        detail = f" ({check['detail']})" if check.get("detail") else ""
        print(f"[{mark}] {check['name']}{detail}")
    print(f"wrote {len(result.artifacts)} artifacts")
    return result.status


if __name__ == "__main__":
    raise SystemExit(main())
