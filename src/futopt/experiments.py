"""Experiment drivers behind the CLI: each one turns a config into artifacts.

Every run writes its numeric artifacts plus a manifest recording the config
hash, seed, and library versions.  Artifacts are formatted with full float
precision and fixed row order, so a rerun with the same config and seed is
byte-identical regardless of worker count; the manifest's timestamp is the
only field allowed to differ.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from .config import ScenarioConfig, build_strategy
from .errors import ConfigError
from .filtering import run_filter_batch
from .market import PathBatch, returns_from_prices, simulate_batch
from .measure import build_measure_state, relative_risk, zeta_projection
from .montecarlo import chunk_layout, run_chunked
from .strategies import LaggedEstimateStrategy, LogOptimalStrategy, MaskedStrategy, ScaledStrategy
from .trading import cost_term, write_position_ledger
from .utility import (
    conjugate,
    conjugate_grid_sup,
    double_conjugate_grid,
    log_optimal_closed_forms,
    log_utility,
    optimality_probe,
    power_utility,
    validate_utility,
)
from .wealth import run_backtest, summary_dict, write_wealth_csv

__all__ = ["ExperimentResult", "run_experiment", "ingest_prices"]

#: Reports with |z| above this fail the run's hard invariant checks.
Z_MAX = 4.0


@dataclass
class ExperimentResult:
    status: int
    artifacts: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)

    @property
    def failed_checks(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(cfg: ScenarioConfig, out: Path, n_paths: int, seed: int) -> Path:
    import sys

    payload = {
        "config_hash": cfg.config_hash(),
        "experiment": cfg.experiment,
        "seed": int(seed),
        "n_paths": int(n_paths),
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    path = out / "manifest.json"
    _write_json(path, payload)
    return path


def ingest_prices(csv_path: str | Path, f) -> PathBatch:
    """Build a one-path batch from observed prices: (time, price_1..price_d) CSV.

    Times must be strictly increasing and equidistant; prices must be
    positive.  Latent fields stay unset, and returns are derived from the
    prices so downstream filtering and backtesting work unchanged.
    """
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if len(header) < 2 or header[0] != "time":
        raise ConfigError(f"{csv_path}: expected header (time, price_1, ...)")
    d = len(header) - 1
    if len(rows) < 2:
        raise ConfigError(f"{csv_path}: need at least two rows of prices")

    t = np.empty(len(rows))
    F = np.empty((len(rows), d))
    for i, row in enumerate(rows):
        if len(row) != d + 1:
            raise ConfigError(f"{csv_path}: row {i + 2} has {len(row)} fields, expected {d + 1}")
        t[i] = float(row[0])
        F[i] = [float(v) for v in row[1:]]
        if np.any(F[i] <= 0):
            raise ConfigError(f"{csv_path}: non-positive price at row {i + 2}")

    dts = np.diff(t)
    if np.any(dts <= 0):
        bad = int(np.argmax(dts <= 0)) + 2
        raise ConfigError(f"{csv_path}: timestamps must be strictly increasing (row {bad + 1})")
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        bad = int(np.argmax(~np.isclose(dts, dts[0], rtol=1e-9, atol=1e-12))) + 2
        raise ConfigError(f"{csv_path}: timestamps must be equidistant (row {bad + 1})")

    f = np.asarray(f, dtype=float)
    if f.ndim == 0:
        f = np.full(d, float(f))
    if f.shape != (d,) or np.any(f <= 0):
        raise ConfigError("contract unit values f must be positive, one per asset")

    return PathBatch(t_grid=t, F=F[None], R=returns_from_prices(F)[None])


# -- individual experiments -------------------------------------------------


def _run_simulate(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    artifacts = []
    layout = chunk_layout(n_paths)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(layout))
    guard_total = 0
    for (start, size), child in zip(layout, children):
        batch = simulate_batch(params, child, size)
        guard_total += int(batch.guard_events.sum())
        for i in range(size):
            p = out / f"path_{start + i:04d}.csv"
            batch.to_csv(p, i)
            artifacts.append(str(p))
    frac = guard_total / (n_paths * params.n_steps * params.d)
    checks = [
        {
            "name": "positivity_guard_fraction",
            "passed": bool(frac <= params.guard_warn_fraction),
            "detail": f"guard events on {frac:.3g} of steps",
        }
    ]
    artifacts.append(str(_manifest(cfg, out, n_paths, seed)))
    status = 0 if all(c["passed"] for c in checks) else 1
    return ExperimentResult(status=status, artifacts=artifacts, checks=checks)


def _strategy_measure(batch, ledger, params, theta_max):
    """Path 0's state price density, consistent with its realized cost process.

    Built as a batch of one from the ledger's path-0 record.
    """
    c_tilde = np.nan_to_num(ledger.book.c_tilde, nan=0.0)
    theta = relative_risk(batch.beta[:1, : batch.n_steps, :] - c_tilde, params)
    return build_measure_state(theta, batch.dW[:1], params, theta_max)


def _run_backtest(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    s = cfg.strategy
    cap = None if s.caps is None else np.asarray(s.caps, dtype=float)
    run_params = params if s.gearing is None else params.with_updates(k=np.asarray(s.gearing, float))
    p_cov0 = None if s.p_cov0 is None else np.asarray(s.p_cov0, float)

    summary: dict = {}
    ledger_csv = out / "ledger_0000.csv"
    pos_csv = out / "positions_0000.csv"

    def chunk(seed_seq, n_in_chunk):
        batch = simulate_batch(run_params, seed_seq, n_in_chunk)
        ledger = run_backtest(
            batch, build_strategy(cfg), run_params, s.x0,
            cap=cap, integer_contracts=s.integer_contracts, p_cov0=p_cov0, theta_max=s.theta_max,
        )
        if seed_seq.spawn_key[-1] == 0:  # chunk 0, see run_chunked
            # Scalars and path-0 reports come from chunk 0; no array outlives it.
            summary.update(summary_dict(ledger, run_params, s.x0, ledger.H_T, s.h_window))
            write_wealth_csv(ledger_csv, ledger, _strategy_measure(batch, ledger, run_params, s.theta_max))
            write_position_ledger(pos_csv, ledger.book, batch.F, ledger.t_grid)
        return {
            "terminal_wealth": ledger.X_T,
            "balance_HX": ledger.H_T * ledger.X_T,
            "dead": ledger.dead.astype(float),
        }

    stats = run_chunked(n_paths, seed, chunk, workers=cfg.mc.workers)
    artifacts = [str(ledger_csv), str(pos_csv)]

    bal = stats["balance_HX"]
    summary.update(
        {
            "n_paths": bal.n,
            "terminal_mean": stats["terminal_wealth"].mean,
            "terminal_stderr": stats["terminal_wealth"].stderr,
            "dead_fraction": stats["dead"].mean,
            "budget_mean_HX": bal.mean,
            "budget_stderr": bal.stderr,
            "budget_z_score": bal.z_score(s.x0),
        }
    )
    summary_path = out / "summary.json"
    _write_json(summary_path, summary)
    artifacts.append(str(summary_path))
    artifacts.append(str(_manifest(cfg, out, n_paths, seed)))

    checks = [
        {
            "name": "budget_balance",
            "passed": bool(bal.mean - s.x0 <= max(3.0 * bal.stderr, 1e-9 * s.x0)),
            "detail": f"E[H X] = {bal.mean:.6g} vs x0 = {s.x0:.6g} (z = {bal.z_score(s.x0):.2f})",
        }
    ]
    status = 0 if all(c["passed"] for c in checks) else 1
    return ExperimentResult(status=status, artifacts=artifacts, checks=checks)


def _run_verify_measure(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    theta_max = cfg.strategy.theta_max
    n = params.n_steps
    n_buckets = min(4, n)
    edges = np.linspace(0, n, n_buckets + 1).astype(int)
    zeta_gaps: list[float] = []

    def chunk(seed_seq, n_in_chunk):
        batch = simulate_batch(params, seed_seq, n_in_chunk)
        fh = run_filter_batch(batch.delta_R(), params)
        theta_hat = relative_risk(fh.beta_hat[:, :n, :], params)
        ms = build_measure_state(theta_hat, batch.dW, params, theta_max)
        dW_tilde = np.diff(ms.W_tilde, axis=1)
        zeta, gap = zeta_projection(ms.theta, dW_tilde, params)
        zeta_gaps.append(gap)
        z_T = ms.Z[:, -1]
        res = {"E[Z_T]": z_T, "E[Z_T/zeta_T]": z_T / zeta[:, -1]}
        for b in range(n_buckets):
            incr = ms.W_tilde[:, edges[b + 1], :] - ms.W_tilde[:, edges[b], :]
            for j in range(params.d):
                res[f"E[Z_T dWtilde_{j + 1} bucket{b + 1}]"] = z_T * incr[:, j]
        return res

    stats = run_chunked(n_paths, seed, chunk, workers=cfg.mc.workers)

    rows = []
    checks = []
    for name, mom in stats.items():
        target = 1.0 if name in ("E[Z_T]", "E[Z_T/zeta_T]") else 0.0
        z = mom.z_score(target)
        rows.append((name, mom.n, mom.mean, mom.stderr, target, z))
        checks.append(
            {
                "name": f"martingale:{name}",
                "passed": bool(abs(z) <= Z_MAX),
                "detail": f"mean {mom.mean:.6g}, target {target}, z {z:.2f}",
            }
        )
    # The recursion gap grows with the largest |dW| draw in the run; 1e-4
    # still catches sign and scaling mistakes at any realistic path count.
    max_gap = max(zeta_gaps) if zeta_gaps else 0.0
    checks.append(
        {
            "name": "zeta_recursion_gap",
            "passed": bool(max_gap < 1e-4),
            "detail": f"max relative gap {max_gap:.3g}",
        }
    )

    report = out / "measure_report.csv"
    with open(report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "n_paths", "mean", "stderr", "target", "z_score"])
        for name, n_p, mean, se, target, z in sorted(rows):
            writer.writerow([name, n_p, repr(mean), repr(se), repr(float(target)), repr(z)])

    artifacts = [str(report), str(_manifest(cfg, out, n_paths, seed))]
    status = 0 if all(c["passed"] for c in checks) else 1
    return ExperimentResult(status=status, artifacts=artifacts, checks=checks)


def _run_duality_report(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    utilities = {"log": log_utility(), "power_0.2": power_utility(0.2)}
    report: dict = {"utilities": {}}
    checks = []

    y_grid = np.geomspace(0.05, 20.0, 9)
    for name, u in utilities.items():
        val = validate_utility(u)
        gap = float(np.max(np.abs(conjugate(u, y_grid) - conjugate_grid_sup(u, y_grid))))
        entry = {"validation": val, "conjugate_max_gap_vs_grid_sup": gap}
        if name == "log":
            dd = [abs(double_conjugate_grid(u, x) - float(np.log(x))) for x in (0.5, 1.0, 2.0)]
            entry["double_conjugate_max_gap"] = max(dd)
        report["utilities"][name] = entry
        checks.append({"name": f"utility_valid:{name}", "passed": bool(val["ok"]), "detail": ""})
        checks.append(
            {
                "name": f"conjugate_gap:{name}",
                "passed": bool(gap <= 1e-6),
                "detail": f"max gap {gap:.3g}",
            }
        )

    # Value-function arbitration: simulate, filter, and compare the two
    # printed value formulas against the Monte Carlo mean of log xi_T.
    batch = simulate_batch(params, np.random.SeedSequence(seed), min(n_paths, 20000))
    fh = run_filter_batch(batch.delta_R(), params)
    theta_hat = relative_risk(fh.beta_hat[:, : params.n_steps, :], params)
    rep = log_optimal_closed_forms(theta_hat, batch.dW, params, cfg.strategy.x0)
    arb = {
        "value_mc": rep.value_mc,
        "value_mc_stderr": rep.value_mc_stderr,
        "value_with_half": rep.value_half,
        "value_without_half": rep.value_flat,
        "without_minus_mc": rep.flat_minus_mc,
        "half_minus_mc": rep.value_half - rep.value_mc,
    }
    report["value_function_arbitration"] = arb
    checks.append(
        {
            "name": "value_function_half_form",
            "passed": bool(abs(rep.value_half - rep.value_mc) <= 3.0 * rep.value_mc_stderr + 1e-12),
            "detail": f"half-form gap {rep.value_half - rep.value_mc:.3g} vs stderr {rep.value_mc_stderr:.3g}",
        }
    )

    path = out / "duality.json"
    _write_json(path, report)
    artifacts = [str(path), str(_manifest(cfg, out, n_paths, seed))]
    status = 0 if all(c["passed"] for c in checks) else 1
    return ExperimentResult(status=status, artifacts=artifacts, checks=checks)


def _run_cost_sweep(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    sweep = cfg.cost_sweep
    P_prev = np.full(params.d, float(sweep.P_prev))
    P_now = np.full(params.d, float(sweep.P_now))
    C = params.f * params.F0

    rows = []
    for dt in sweep.delta_ts:
        p_dt = params.with_updates(delta_t=float(dt))
        c_tilde, _ = cost_term(P_now, P_prev, C, p_dt)
        for j in range(params.d):
            rows.append((float(dt), j + 1, float(c_tilde[j]), float(c_tilde[j] * dt)))

    path = out / "cost_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_t", "asset", "cost_relative", "cost_times_delta_t"])
        for dt, asset, c, cdt in rows:
            writer.writerow([repr(dt), asset, repr(c), repr(cdt)])

    # 1/dt proportionality: c_tilde * dt must be flat across the sweep.
    ok = True
    for j in range(params.d):
        prods = [cdt for dt, asset, c, cdt in rows if asset == j + 1]
        ref = prods[0]
        if any(abs(p - ref) > 1e-12 * abs(ref) for p in prods):
            ok = False
    checks = [
        {
            "name": "cost_inverse_dt_scaling",
            "passed": bool(ok),
            "detail": "c_tilde * delta_t constant across the sweep",
        }
    ]
    artifacts = [str(path), str(_manifest(cfg, out, n_paths, seed))]
    return ExperimentResult(status=0 if ok else 1, artifacts=artifacts, checks=checks)


def _run_optimality_probe(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    s = cfg.strategy

    def base():
        return LogOptimalStrategy(mode=s.mode, literal_product=s.literal_product)

    perturbations = {
        "scaled_0.5": lambda: ScaledStrategy(base(), 0.5),
        "scaled_1.5": lambda: ScaledStrategy(base(), 1.5),
    }
    if np.any(params.varsigma != 0):  # a fixed drift keeps beta_hat at beta0: a lag changes nothing
        perturbations["lagged_5"] = lambda: LaggedEstimateStrategy(base(), lag=5)
    if params.d > 1:
        keep = np.zeros(params.d, dtype=bool)
        keep[0] = True
        perturbations["first_component_only"] = lambda: MaskedStrategy(base(), keep)

    rows = optimality_probe(
        params, s.x0, base, perturbations, n_paths, seed=seed,
        workers=cfg.mc.workers,
    )

    path = out / "optimality_probe.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "n_paths", "mean_utility", "stderr"])
        for row in rows:
            writer.writerow([row.policy, row.n_paths, repr(row.mean_utility), repr(row.stderr)])

    diffs = {
        row.policy: {
            "diff_vs_base": row.diff_vs_base,
            "diff_stderr": row.diff_stderr,
            "base_dominates": bool(row.base_dominates),
            "degenerate": bool(row.degenerate),
        }
        for row in rows[1:]
    }
    summary_path = out / "probe_summary.json"
    _write_json(summary_path, diffs)

    checks = [
        {
            "name": f"dominance:{row.policy}",
            "passed": bool(not row.degenerate and row.diff_vs_base <= 2.0 * row.diff_stderr),
            "detail": ("degenerate: " if row.degenerate else "")
            + f"gap vs base {row.diff_vs_base:.3g} (se {row.diff_stderr:.3g})",
        }
        for row in rows[1:]
    ]
    artifacts = [str(path), str(summary_path), str(_manifest(cfg, out, n_paths, seed))]
    status = 0 if all(c["passed"] for c in checks) else 1
    return ExperimentResult(status=status, artifacts=artifacts, checks=checks)


_RUNNERS = {
    "simulate": _run_simulate,
    "backtest": _run_backtest,
    "verify-measure": _run_verify_measure,
    "duality-report": _run_duality_report,
    "cost-sweep": _run_cost_sweep,
    "optimality-probe": _run_optimality_probe,
}


def run_experiment(
    cfg: ScenarioConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    n_paths: int | None = None,
) -> ExperimentResult:
    """Dispatch a configured experiment and write artifacts plus manifest.

    Returns a result whose status is 0 on success; hard invariant failures
    set a nonzero status and the failed checks land in failure_summary.json
    next to the artifacts.
    """
    out = Path(out_dir if out_dir is not None else cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)
    use_seed = cfg.mc.seed if seed is None else int(seed)
    use_paths = cfg.mc.n_paths if n_paths is None else int(n_paths)

    runner = _RUNNERS[cfg.experiment]
    result = runner(cfg, out, use_seed, use_paths)

    if result.status != 0:
        failure = out / "failure_summary.json"
        _write_json(
            failure,
            {
                "experiment": cfg.experiment,
                "status": result.status,
                "failed_checks": result.failed_checks,
            },
        )
        result.artifacts.append(str(failure))
    return result
