"""Experiment drivers behind the CLI: each one turns a config into artifacts.

Every run writes its numeric artifacts plus a manifest recording the config
hash, seed, and library versions.  This module is the only artifact writer,
and it writes only outside run_chunked, from what the chunks return: every
CSV goes through _write_csv, with full float precision and fixed row order,
so a rerun with the same config and seed is byte-identical regardless of
worker count; the manifest's timestamp is the only field allowed to differ.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version
from ._rows import _dot, _quad_form
from .config import ScenarioConfig, build_strategy
from .errors import ConfigError, ModelError
from .filtering import KalmanSchedule, run_filter_batch
from .market import PathBatch, returns_from_prices, simulate_batch
from .measure import advance_log_z, change_measure, relative_risk, zeta_step
from .montecarlo import chunk_layout, run_chunked
from .strategies import LaggedEstimateStrategy, LogOptimalStrategy, MaskedStrategy, ScaledStrategy
from .trading import cost_term
from .utility import (
    conjugate,
    conjugate_grid_sup,
    double_conjugate_grid,
    log_optimal_report,
    log_utility,
    power_utility,
    validate_utility,
)
from .wealth import EVENTS, WealthLedger, realized_monetary_vol, run_backtest

__all__ = ["ExperimentResult", "run_experiment", "ingest_prices"]

#: Reports with |z| above this fail the run's hard invariant checks.
Z_MAX = 4.0
#: Experiments whose checks compare a Monte Carlo mean with its standard error.
_NEEDS_STDERR = frozenset({"backtest", "verify-measure", "duality-report", "optimality-probe"})


@dataclass
class ExperimentResult:
    artifacts: list[str] = field(default_factory=list)
    checks: list[dict] = field(default_factory=list)

    @property
    def failed_checks(self) -> list[dict]:
        return [c for c in self.checks if not c["passed"]]

    @property
    def status(self) -> int:
        """0 when every check passed, else 1."""
        return 1 if self.failed_checks else 0


def _check(name: str, passed, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _write_json(path: Path, obj) -> Path:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write the header, then each row; float cells as repr(float(v)), which
    round-trips exactly (numpy 2 would print a bare np.float64 as its repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return path


def _path_rows(batch: PathBatch, i: int) -> tuple[list[str], list]:
    """Path i as (time, F_1..F_d, R_1..R_d, beta_1..beta_d) rows; the beta
    cells stay empty on a batch without latent beta (ingested prices)."""
    d = batch.d
    header = ["time"] + [f"{name}_{j + 1}" for name in ("F", "R", "beta") for j in range(d)]
    cols = [batch.t_grid[:, None], batch.F[i], batch.R[i]]
    if batch.beta is None:
        return header, [row + [""] * d for row in np.hstack(cols).tolist()]
    return header, np.hstack(cols + [batch.beta[i]]).tolist()


_BOOK_COLUMNS = ("weight", "position", "trade", "cost_relative", "cost_cash")


def _book_floats(ledger: WealthLedger) -> np.ndarray:
    """Path 0's (N, d, 5) weights, positions, trades, relative and cash costs."""
    b = ledger.book
    return np.stack([b.pi[0], b.P[0], b.trade[0], b.c_tilde[0], b.cash_cost[0]], axis=-1)


def _ledger_rows(ledger: WealthLedger) -> tuple[list[str], list]:
    """Path 0 per time: wealth, gamma X and H X (NaN without a density), then
    the book's five columns per asset, empty on the last row."""
    X = ledger.X[0]
    n, d = X.shape[0] - 1, ledger.book.P.shape[-1]
    nan = np.full(n + 1, np.nan)
    gamma_X = ledger.gamma * X if ledger.gamma is not None else nan
    H_X = ledger.H * X if ledger.H is not None else nan
    header = ["time", "wealth", "discounted_wealth", "H_wealth"]
    header += [f"{name}_{j + 1}" for j in range(d) for name in _BOOK_COLUMNS]
    front = np.column_stack([ledger.t_grid, X, gamma_X, H_X])
    rows = np.hstack([front[:n], _book_floats(ledger).reshape(n, 5 * d)]).tolist()
    return header, rows + [front[n].tolist() + [""] * (5 * d)]


def _position_rows(ledger: WealthLedger, F: np.ndarray) -> tuple[list[str], list]:
    """Path 0 in long format, one row per (time, asset), time-major; F holds
    (n, N + 1, d) prices with path 0 first."""
    book = ledger.book
    _, n, d = book.P.shape
    floats = np.concatenate([F[0, :n, :, None], book.C[0, :, :, None], _book_floats(ledger)], axis=-1)
    cells = zip(np.repeat(ledger.t_grid[:n], d).tolist(), np.tile(np.arange(1, d + 1), n).tolist(),
                floats.reshape(n * d, 7).tolist(), book.clipped[0].reshape(-1).astype(int).tolist())
    header = ["time", "asset", "price", "contract_price", *_BOOK_COLUMNS, "clipped"]
    return header, [[t, j, *f, c] for t, j, f, c in cells]


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
    return _write_json(out / "manifest.json", payload)


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
            artifacts.append(str(_write_csv(out / f"path_{start + i:04d}.csv", *_path_rows(batch, i))))
    frac = guard_total / (n_paths * params.n_steps * params.d)
    checks = [_check("positivity_guard_fraction", frac <= params.guard_warn_fraction,
                     f"guard events on {frac:.3g} of steps")]
    return ExperimentResult(artifacts, checks)


def _trading_setup(cfg: ScenarioConfig):
    """The market as the strategy trades it, strategy.gearing as k, and the
    position caps (None without strategy.caps)."""
    s = cfg.strategy
    params = cfg.market if s.gearing is None else cfg.market.with_updates(k=np.asarray(s.gearing, float))
    return params, None if s.caps is None else np.asarray(s.caps, dtype=float)


def _run_backtest(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    s = cfg.strategy
    run_params, cap = _trading_setup(cfg)

    def chunk(seed_seq, n_in_chunk):
        batch = simulate_batch(run_params, seed_seq, n_in_chunk)
        ledger = run_backtest(
            batch, build_strategy(cfg), run_params, s.x0, cap=cap,
            integer_contracts=s.integer_contracts, theta_max=s.theta_max, p_cov0=s.p_cov0,
        )
        samples = {
            "terminal_wealth": ledger.X_T,
            "balance_HX": ledger.H_T * ledger.X_T,
            "dead": ledger.dead.astype(float),
            **ledger.events,
        }
        return samples, (ledger, batch.F[:1].copy())   # a copy: a view would keep the batch alive

    stats, outs = run_chunked(n_paths, seed, chunk, workers=cfg.mc.workers)
    ledger, F = outs[0]   # path 0's reports
    artifacts = [str(_write_csv(out / "ledger_0000.csv", *_ledger_rows(ledger))),
                 str(_write_csv(out / "positions_0000.csv", *_position_rows(ledger, F)))]

    X_T, bal, dead = stats["terminal_wealth"], stats["balance_HX"], stats["dead"]
    summary = {
        "n_paths": bal.n,
        "x0": float(s.x0),
        "terminal_mean": X_T.mean,
        "terminal_stderr": X_T.stderr,
        "terminal_std": X_T.std,
        "terminal_min": X_T.lo,
        "terminal_max": X_T.hi,
        "dead_fraction": dead.mean,
        "dead_paths": int(dead.total),
        "budget_mean_HX": bal.mean,
        "budget_stderr": bal.stderr,
        "budget_z_score": bal.z_score(s.x0),
        "realized_monetary_vol": realized_monetary_vol(ledger, run_params, s.h_window),
        **{name: int(stats[name].total) for name in EVENTS},
    }
    artifacts.append(str(_write_json(out / "summary.json", summary)))

    checks = [_check("budget_balance", bal.mean - s.x0 <= max(3.0 * bal.stderr, 1e-9 * s.x0),
                     f"E[H X] = {bal.mean:.6g} vs x0 = {s.x0:.6g} (z = {bal.z_score(s.x0):.2f})")]
    return ExperimentResult(artifacts, checks)


def _measure_samples(params, seed_seq, n_paths: int, edges, p_cov0, theta_max):
    """verify-measure's per-path samples and largest zeta recursion gap on a
    fresh batch, streamed like _value_arbitration: only R, dW, rows and W~ at
    the bucket edges are kept."""
    batch = simulate_batch(params, seed_seq, n_paths)
    R, dW = batch.R, batch.dW
    del batch
    log_z, log_zeta, W = np.zeros(n_paths), np.zeros(n_paths), np.zeros((n_paths, params.d))
    W_at, gap, zeta_peak = {0: W}, 0.0, 0.0
    for i, b in enumerate(KalmanSchedule(params, params.n_steps, p_cov0).estimates(R)):
        theta, _ = advance_log_z(log_z, b, dW[:, i], params, theta_max, i)
        W_next = W + change_measure(theta, dW[:, i], params)
        incr, gaps = zeta_step(theta, W_next - W, params)   # on W~'s own increments, as np.diff gives them
        log_zeta += incr
        zeta_peak, gap = np.maximum(zeta_peak, log_zeta.max()), np.maximum(gap, gaps.max())   # NaN stays NaN
        W = W_next
        if i + 1 in edges:
            W_at[i + 1] = W
    with np.errstate(over="ignore"):   # raised after every step, so an overflowing Z wins
        if not np.isfinite(np.exp(zeta_peak)):
            raise ModelError("zeta projection overflowed")

    z_T = np.exp(log_z)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 on underflow: a NaN mean fails its check
        res = {"E[Z_T]": z_T, "E[Z_T/zeta_T]": z_T / np.exp(log_zeta)}
    for k in range(len(edges) - 1):
        incr = W_at[edges[k + 1]] - W_at[edges[k]]
        for j in range(params.d):
            res[f"E[Z_T dWtilde_{j + 1} bucket{k + 1}]"] = z_T * incr[:, j]
    return res, float(gap)


def _run_verify_measure(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    params = cfg.market
    n_buckets = min(4, params.n_steps)
    edges = np.linspace(0, params.n_steps, n_buckets + 1).astype(int)
    chunk = partial(_measure_samples, params, edges=edges, p_cov0=cfg.strategy.p_cov0,
                    theta_max=cfg.strategy.theta_max)
    stats, zeta_gaps = run_chunked(n_paths, seed, chunk, workers=cfg.mc.workers)

    rows = []
    checks = []
    for name, mom in stats.items():
        target = 1.0 if name in ("E[Z_T]", "E[Z_T/zeta_T]") else 0.0
        z, cause = mom.z_score(target), mom.z_cause(target)
        rows.append((name, mom.n, mom.mean, mom.stderr, target, z))
        checks.append(_check(f"martingale:{name}", abs(z) <= Z_MAX,
                             f"mean {mom.mean:.6g}, target {target}, z {z:.2f}" + (f": {cause}" if cause else "")))
    # The recursion gap grows with the largest |dW| draw in the run; 1e-4
    # still catches sign and scaling mistakes at any realistic path count.
    max_gap = float(np.max(zeta_gaps))   # a NaN gap wins, whichever chunk it came from
    cause = "" if np.isfinite(max_gap) else ": the growth factor exp(u) of 1/zeta overflowed or underflowed"
    checks.append(_check("zeta_recursion_gap", max_gap < 1e-4, f"max relative gap {max_gap:.3g}{cause}"))

    report = _write_csv(out / "measure_report.csv",
                        ["quantity", "n_paths", "mean", "stderr", "target", "z_score"], sorted(rows))
    return ExperimentResult([str(report)], checks)


def _value_arbitration(params, seed: int, n_paths: int, x0: float, p_cov0=None):
    """The two printed value formulas vs the Monte Carlo mean of log xi_T on a
    fresh batch, streamed: each step takes theta_hat from the filter's current
    row, adds its terms to q and the running log-growth, then filters the next
    row of returns.  Only the batch's R and dW outlive its build."""
    batch = simulate_batch(params, np.random.SeedSequence(seed), n_paths)
    R, dW = batch.R, batch.dW
    del batch
    n, dt = params.n_steps, params.delta_t
    rate_dt = (1.0 - params.m) * params.r * dt
    q = np.empty((n_paths, n))
    log_growth = None
    for i, b in enumerate(KalmanSchedule(params, n, p_cov0).estimates(R)):
        theta = relative_risk(b, params)
        q[:, i] = q_i = _quad_form(theta, params.rho) * dt
        term = q_i * 0.5 + rate_dt + _dot(theta, dW[:, i])
        log_growth = term if log_growth is None else np.add(log_growth, term, out=log_growth)
    return log_optimal_report(q, log_growth, params, x0)


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
            xs = np.array([0.5, 1.0, 2.0])
            dd = [abs(float(v) - float(np.log(x))) for x, v in zip(xs, double_conjugate_grid(u, xs))]
            entry["double_conjugate_max_gap"] = max(dd)
        report["utilities"][name] = entry
        checks.append(_check(f"utility_valid:{name}", val["ok"]))
        checks.append(_check(f"conjugate_gap:{name}", gap <= 1e-6, f"max gap {gap:.3g}"))

    rep = _value_arbitration(params, seed, min(n_paths, 20000), cfg.strategy.x0, cfg.strategy.p_cov0)
    arb = {
        "value_mc": rep.value_mc,
        "value_mc_stderr": rep.value_mc_stderr,
        "value_with_half": rep.value_half,
        "value_without_half": rep.value_flat,
        "without_minus_mc": rep.flat_minus_mc,
        "half_minus_mc": rep.value_half - rep.value_mc,
    }
    report["value_function_arbitration"] = arb
    checks.append(_check(
        "value_function_half_form",
        abs(rep.value_half - rep.value_mc) <= 3.0 * rep.value_mc_stderr + 1e-12,
        f"half-form gap {rep.value_half - rep.value_mc:.3g} vs stderr {rep.value_mc_stderr:.3g}",
    ))

    return ExperimentResult([str(_write_json(out / "duality.json", report))], checks)


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

    path = _write_csv(out / "cost_sweep.csv",
                      ["delta_t", "asset", "cost_relative", "cost_times_delta_t"], rows)

    # 1/dt proportionality: c_tilde * dt must be flat across the sweep.
    ok = True
    for j in range(params.d):
        prods = [cdt for dt, asset, c, cdt in rows if asset == j + 1]
        ref = prods[0]
        if any(abs(p - ref) > 1e-12 * abs(ref) for p in prods):
            ok = False
    checks = [_check("cost_inverse_dt_scaling", ok, "c_tilde * delta_t constant across the sweep")]
    return ExperimentResult([str(path)], checks)


def _run_optimality_probe(cfg: ScenarioConfig, out: Path, seed: int, n_paths: int) -> ExperimentResult:
    """E[log X_T] of the log-optimal policy against perturbed variants.

    Each chunk filters once; every policy, a fresh instance per chunk, trades
    its paths on that one estimate (common random numbers), so each gap to
    the base is a mean of paired differences, far tighter than either stderr.
    """
    params, cap = _trading_setup(cfg)
    s = cfg.strategy

    def base():
        return LogOptimalStrategy(mode=s.mode, literal_product=s.literal_product)

    policies = {
        "base": base,
        "scaled_0.5": lambda: ScaledStrategy(base(), 0.5),
        "scaled_1.5": lambda: ScaledStrategy(base(), 1.5),
    }
    if np.any(params.varsigma != 0):  # a fixed drift keeps beta_hat at beta0: a lag changes nothing
        policies["lagged_5"] = lambda: LaggedEstimateStrategy(base(), lag=5)
    if params.d > 1:
        keep = np.zeros(params.d, dtype=bool)
        keep[0] = True
        policies["first_component_only"] = lambda: MaskedStrategy(base(), keep)
    perturbed = list(policies)[1:]

    def chunk(seed_seq, n_in_chunk):
        batch = simulate_batch(params, seed_seq, n_in_chunk)
        beta_hat = run_filter_batch(batch.delta_R(), params, s.p_cov0).beta_hat
        res = {}
        for name, make in policies.items():
            X_T = run_backtest(batch, make(), params, s.x0, beta_hat=beta_hat,
                               cap=cap, integer_contracts=s.integer_contracts).X_T
            res[f"u:{name}"] = np.log(np.maximum(X_T, 1e-300))   # dead paths: log -> -inf guard
        for name in perturbed:
            res[f"diff:{name}"] = res["u:base"] - res[f"u:{name}"]
        return res, None

    stats, _ = run_chunked(n_paths, seed, chunk, workers=cfg.mc.workers)

    utility = {name: stats[f"u:{name}"] for name in policies}
    path = _write_csv(out / "optimality_probe.csv", ["policy", "n_paths", "mean_utility", "stderr"],
                      [[name, m.n, m.mean, m.stderr] for name, m in utility.items()])

    diffs, checks = {}, []
    for name in perturbed:
        dd = stats[f"diff:{name}"]
        gap, se = -dd.mean, dd.stderr           # gap is negative when the base wins
        degenerate = gap == 0.0 and se == 0.0   # every paired difference is 0: a tie with the base
        diffs[name] = {"diff_vs_base": gap, "diff_stderr": se,
                       "base_dominates": gap < -2.0 * se, "degenerate": degenerate}
        checks.append(_check(f"dominance:{name}", not degenerate and gap <= 2.0 * se,
                             ("degenerate: " if degenerate else "") + f"gap vs base {gap:.3g} (se {se:.3g})"))
    summary_path = _write_json(out / "probe_summary.json", diffs)

    return ExperimentResult([str(path), str(summary_path)], checks)


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
    use_seed = cfg.mc.seed if seed is None else int(seed)
    use_paths = cfg.mc.n_paths if n_paths is None else int(n_paths)
    if use_seed < 0:
        raise ConfigError(f"seed (--seed) must be nonnegative, got {use_seed}")
    if use_paths < 2 and cfg.experiment in _NEEDS_STDERR:
        raise ConfigError(f"{cfg.experiment} needs n_paths (--paths) >= 2, got {use_paths}: its checks "
                          "compare a mean with its standard error, which one path does not have")
    out = Path(out_dir if out_dir is not None else cfg.outputs.dir)
    out.mkdir(parents=True, exist_ok=True)

    result = _RUNNERS[cfg.experiment](cfg, out, use_seed, use_paths)
    result.artifacts.append(str(_manifest(cfg, out, use_paths, use_seed)))

    if result.status != 0:
        failure = {
            "experiment": cfg.experiment,
            "status": result.status,
            "failed_checks": result.failed_checks,
        }
        result.artifacts.append(str(_write_json(out / "failure_summary.json", failure)))
    return result
