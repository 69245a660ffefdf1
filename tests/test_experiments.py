import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import bulk_draws, traced_peaks
from futopt import (LogOptimalStrategy, ModelError, ZeroStrategy, build_batch, build_measure_state,
                    config_from_dict, load_config, log_optimal_closed_forms, relative_risk, run_backtest,
                    run_experiment, run_filter_batch, simulate_batch, simulate_drift, zeta_projection)
from futopt.experiments import _ledger_rows, _measure_samples, _position_rows, _value_arbitration, _write_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _cfg(experiment, market=None, mc=None, **extra):
    tree = {
        "experiment": experiment,
        "market": {"d": 1, "n_steps": 16, "sigma": 0.2, "beta0": 0.08,
                   "alpha": -0.5, "varsigma": 0.1, "f": 50.0,
                   "c_spread": 0.001, "m": 0.2, "r": 0.03},
        "mc": {"n_paths": 64, "seed": 4},
    }
    if market:
        tree["market"].update(market)
    if mc:
        tree["mc"].update(mc)
    tree.update(extra)
    return config_from_dict(tree)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_simulate_artifact_schema(tmp_path):
    result = run_experiment(_cfg("simulate", mc={"n_paths": 3}), out_dir=tmp_path)
    assert result.status == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["manifest.json", "path_0000.csv", "path_0001.csv", "path_0002.csv"]
    rows = _read_csv(tmp_path / "path_0000.csv")
    assert rows[0] == ["time", "F_1", "R_1", "beta_1"]
    assert len(rows) == 18  # header + N + 1
    assert [c["name"] for c in result.checks] == ["positivity_guard_fraction"]


def test_simulate_guard_failure_writes_summary(tmp_path):
    cfg = _cfg("simulate", market={"sigma": 60.0, "guard_warn_fraction": 1e-9},
               mc={"n_paths": 8})
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.status == 1
    failure = json.loads((tmp_path / "failure_summary.json").read_text())
    assert failure["experiment"] == "simulate"
    assert failure["failed_checks"][0]["name"] == "positivity_guard_fraction"


def test_backtest_artifact_schema(tmp_path):
    result = run_experiment(_cfg("backtest"), out_dir=tmp_path)
    assert result.status == 0
    assert {p.name for p in tmp_path.iterdir()} == {
        "ledger_0000.csv", "positions_0000.csv", "summary.json", "manifest.json"
    }
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("n_paths", "terminal_mean", "terminal_stderr", "dead_fraction",
                "budget_mean_HX", "budget_stderr", "budget_z_score",
                "realized_monetary_vol", "admissibility_violations"):
        assert key in summary
    assert summary["n_paths"] == 64
    rows = _read_csv(tmp_path / "positions_0000.csv")
    assert rows[0] == ["time", "asset", "price", "contract_price", "weight",
                       "position", "trade", "cost_relative", "cost_cash", "clipped"]
    ledger = _read_csv(tmp_path / "ledger_0000.csv")
    assert ledger[0][:4] == ["time", "wealth", "discounted_wealth", "H_wealth"]


def test_verify_measure_report(tmp_path):
    cfg = _cfg("verify-measure", mc={"n_paths": 512, "seed": 1})
    result = run_experiment(cfg, out_dir=tmp_path)
    rows = _read_csv(tmp_path / "measure_report.csv")
    assert rows[0] == ["quantity", "n_paths", "mean", "stderr", "target", "z_score"]
    quantities = [r[0] for r in rows[1:]]
    assert quantities == sorted(quantities)
    assert "E[Z_T]" in quantities and "E[Z_T/zeta_T]" in quantities
    assert sum(q.startswith("E[Z_T dWtilde_1 bucket") for q in quantities) == 4
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["E[Z_T]"][4]) == 1.0
    # discrete-model identity: Z_T / zeta_T averages to one exactly in law
    assert float(by_name["E[Z_T/zeta_T]"][2]) == pytest.approx(1.0, abs=1e-2)
    check_names = {c["name"] for c in result.checks}
    assert "zeta_recursion_gap" in check_names
    assert result.status == 0


def test_duality_report_schema(tmp_path):
    cfg = _cfg("duality-report", mc={"n_paths": 2000, "seed": 2})
    result = run_experiment(cfg, out_dir=tmp_path)
    assert result.status == 0
    report = json.loads((tmp_path / "duality.json").read_text())
    assert set(report["utilities"]) == {"log", "power_0.2"}
    for entry in report["utilities"].values():
        assert entry["validation"]["ok"]
        assert entry["conjugate_max_gap_vs_grid_sup"] <= 1e-6
    assert report["utilities"]["log"]["double_conjugate_max_gap"] <= 1e-6
    arb = report["value_function_arbitration"]
    assert arb["value_without_half"] > arb["value_with_half"]
    assert abs(arb["half_minus_mc"]) <= 3.0 * arb["value_mc_stderr"] + 1e-12


@pytest.mark.parametrize("market", ["p1", "p2"])
def test_value_arbitration_memory_budget(market, request):
    # In units of one (n_paths, N + 1, d) float array: building the batch
    # (4.3).  The step loop keeps only R, dW and the (n_paths, N) quadratic
    # forms (4.0 at most); taking the returns and the whole filter history
    # read 6.0, and keeping the batch and the whole wealth path alive needs
    # 10-13.
    p = request.getfixturevalue(market).with_updates(n_steps=64)
    (peak,) = traced_peaks(lambda n, mark: _value_arbitration(p, 5, n, 1.0), p)
    assert peak <= 4.6, peak


def _two_asset_measure_market():
    return load_config(CONFIGS / "two_asset_measure.yaml").market


@pytest.mark.parametrize("n_paths, p_cov0, theta_max", [(300, None, 10.0), (1, None, 10.0), (300, 0.4, 0.5)])
@pytest.mark.parametrize("market", ["p1", "p2", "two_asset_measure"])
def test_streamed_measure_samples_equal_whole_path_oracles(market, n_paths, p_cov0, theta_max, request):
    # verify-measure's step loop against the whole-batch filter,
    # build_measure_state and zeta_projection on the same batch, bit for bit:
    # Z_T, Z_T / zeta_T, every bucket increment of W~ and the recursion gap.
    p = (_two_asset_measure_market() if market == "two_asset_measure"
         else request.getfixturevalue(market)).with_updates(n_steps=64, m=0.2, r=0.03)
    n = p.n_steps
    edges = np.linspace(0, n, 5).astype(int)
    res, gap = _measure_samples(p, np.random.SeedSequence(11), n_paths, edges, p_cov0, theta_max)
    batch = simulate_batch(p, np.random.SeedSequence(11), n_paths)
    theta_hat = relative_risk(run_filter_batch(batch.delta_R(), p, p_cov0).beta_hat[:, :n], p)
    ms = build_measure_state(theta_hat, batch.dW, p, theta_max)
    zeta, want_gap = zeta_projection(ms.theta, np.diff(ms.W_tilde, axis=1), p)
    assert (ms.n_capped > 0) == (theta_max < 1.0)
    z_T = ms.Z[:, -1]
    want = {"E[Z_T]": z_T, "E[Z_T/zeta_T]": z_T / zeta[:, -1]}
    for b in range(4):
        incr = ms.W_tilde[:, edges[b + 1]] - ms.W_tilde[:, edges[b]]
        for j in range(p.d):
            want[f"E[Z_T dWtilde_{j + 1} bucket{b + 1}]"] = z_T * incr[:, j]
    assert res.keys() == want.keys()
    for name, values in want.items():
        assert values.shape == (n_paths,) and np.array_equal(res[name], values), name
    assert gap == want_gap and gap > 0


@pytest.mark.parametrize("market", ["p1", "two_asset_measure"])
def test_measure_samples_memory_budget(market, request):
    # In units of one (n_paths, N + 1, d) float array: building the batch
    # (4.3), after which the step loop keeps only R, dW and rows.  Filtering
    # the whole batch first and keeping theta, Z, W~, H and zeta histories
    # read 14.9 at d = 2.
    p = (_two_asset_measure_market() if market == "two_asset_measure"
         else request.getfixturevalue(market)).with_updates(n_steps=64)
    edges = np.linspace(0, p.n_steps, 5).astype(int)
    (peak,) = traced_peaks(lambda n, mark: _measure_samples(p, 5, n, edges, None, 10.0), p)
    assert peak <= 5.0, peak


def test_measure_samples_overflow_names_step_and_path_as_the_backtest_does(monkeypatch):
    # A planted dW row that overflows Z on path 1 at Z's step 6: verify-measure's
    # step loop raises the backtest density's own message.
    import futopt.experiments as experiments

    p = _cfg("verify-measure", market={"n_steps": 8}).market
    dW = np.full((3, 8, 1), 0.01)
    dW[1, 5, 0] = -4000.0   # -theta dW is about 1600 > log(max float)
    batch = build_batch(p, dW, simulate_drift(p, np.zeros_like(dW)))
    with pytest.raises(ModelError) as backtest:
        run_backtest(batch, ZeroStrategy(), p, x0=1e6, theta_max=np.inf)
    monkeypatch.setattr(experiments, "simulate_batch", lambda *args: batch)
    with pytest.raises(ModelError) as measure:
        _measure_samples(p, None, 3, np.array([0, 4, 8]), None, np.inf)
    assert str(measure.value) == str(backtest.value) == "exponential martingale overflowed at step 6 on path 1"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_zeta_gap_of_a_later_chunk_reaches_its_check(tmp_path, monkeypatch, workers):
    # 8193 paths run as chunks of 8192 and 1; only the one-path chunk 1
    # reports a NaN gap, and the check must still see it.
    import futopt.experiments as experiments
    from futopt.montecarlo import WORKERS_ENV_VAR

    real = experiments._measure_samples

    def chunk1_nan_gap(params, seed_seq, n_paths, *args, **kwargs):
        res, gap = real(params, seed_seq, n_paths, *args, **kwargs)
        return res, float("nan") if n_paths == 1 else gap

    monkeypatch.setattr(experiments, "_measure_samples", chunk1_nan_gap)
    monkeypatch.setenv(WORKERS_ENV_VAR, workers)
    result = run_experiment(_cfg("verify-measure", mc={"n_paths": 8193, "seed": 2}), out_dir=tmp_path)
    assert [c["name"] for c in result.failed_checks] == ["zeta_recursion_gap"]
    assert "max relative gap nan" in result.failed_checks[0]["detail"]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("n_paths, p_cov0", [(300, None), (2, None), (300, 0.4)])
@pytest.mark.parametrize("market", ["p1", "p2"])
def test_streamed_arbitration_equals_whole_path_oracle(market, n_paths, p_cov0, seed, request):
    # The step loop against the whole-batch filter, relative risk and closed forms
    # on the same batch: bit for bit at d = 1, to rounding at d = 2.
    p = request.getfixturevalue(market).with_updates(n_steps=64, m=0.2, r=0.03)
    rep = _value_arbitration(p, seed, n_paths, 7.0, p_cov0)
    batch = simulate_batch(p, np.random.SeedSequence(seed), n_paths)
    theta = relative_risk(run_filter_batch(batch.delta_R(), p, p_cov0).beta_hat[:, : p.n_steps], p)
    oracle = log_optimal_closed_forms(theta, batch.dW, p, 7.0)
    for name in ("value_mc", "value_mc_stderr", "value_half", "value_flat", "flat_minus_mc", "xi_T"):
        got, want = getattr(rep, name), getattr(oracle, name)
        if p.d == 1:
            assert np.array_equal(got, want), name
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), name
    assert rep.xi_T.shape == (n_paths,)


def test_duality_report_solves_nothing_larger_than_d_by_d(tmp_path, monkeypatch):
    # The filter's gain solves are (d, d); relative risk applies an inverse
    # instead of solving against every path and step at once.
    sizes, real = [], np.linalg.solve

    def recorded(a, b):
        sizes.append(np.asarray(b).size)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    cfg = _cfg("duality-report", mc={"n_paths": 200, "seed": 2})
    run_experiment(cfg, out_dir=tmp_path)
    assert sizes and max(sizes) <= cfg.market.d ** 2


def test_cost_sweep_rows_and_scaling(tmp_path):
    result = run_experiment(_cfg("cost-sweep"), out_dir=tmp_path)
    assert result.status == 0
    rows = _read_csv(tmp_path / "cost_sweep.csv")
    assert rows[0] == ["delta_t", "asset", "cost_relative", "cost_times_delta_t"]
    assert len(rows) == 1 + 3  # three delta_t values, one asset
    products = [float(r[3]) for r in rows[1:]]
    for p in products[1:]:  # 1/delta_t proportionality to rounding error
        assert p == pytest.approx(products[0], rel=1e-12)


def _probe_cfg(varsigma):
    return _cfg(
        "optimality-probe",
        market={"alpha": 0.0, "varsigma": varsigma, "c_spread": 0.0, "m": 0.0,
                "r": 0.0, "n_steps": 8},
        mc={"n_paths": 256, "seed": 0},
        strategy={"mode": "zero_cost"},
    )


def test_optimality_probe_schema(tmp_path):
    # known drift (varsigma 0): the filter never leaves beta0, so no lagged variant runs
    result = run_experiment(_probe_cfg(0.0), out_dir=tmp_path)
    assert result.status == 0
    rows = _read_csv(tmp_path / "optimality_probe.csv")
    assert rows[0] == ["policy", "n_paths", "mean_utility", "stderr"]
    assert [r[0] for r in rows[1:]] == ["base", "scaled_0.5", "scaled_1.5"]
    summary = json.loads((tmp_path / "probe_summary.json").read_text())
    assert set(summary) == {"scaled_0.5", "scaled_1.5"}
    for entry in summary.values():
        assert set(entry) == {"diff_vs_base", "diff_stderr", "base_dominates", "degenerate"}
        assert entry["degenerate"] is False
    # known drift, no costs: scaling the optimal weight always hurts
    assert summary["scaled_0.5"]["diff_vs_base"] < 0


def test_optimality_probe_lags_a_learned_drift(tmp_path):
    result = run_experiment(_probe_cfg(0.3), out_dir=tmp_path)
    rows = _read_csv(tmp_path / "optimality_probe.csv")
    assert [r[0] for r in rows[1:]] == ["base", "scaled_0.5", "scaled_1.5", "lagged_5"]
    lagged = json.loads((tmp_path / "probe_summary.json").read_text())["lagged_5"]
    assert lagged["diff_vs_base"] != 0.0 and lagged["diff_stderr"] > 0.0
    assert lagged["degenerate"] is False
    check = {c["name"]: c for c in result.checks}["dominance:lagged_5"]
    assert check["passed"] == (lagged["diff_vs_base"] <= 2.0 * lagged["diff_stderr"])


def test_optimality_probe_tie_with_base_fails_as_degenerate(tmp_path, monkeypatch):
    import futopt.experiments as experiments

    # a "lag" that returns the base policy itself ties it on every path
    monkeypatch.setattr(experiments, "LaggedEstimateStrategy", lambda strategy, lag: strategy)
    result = run_experiment(_probe_cfg(0.3), out_dir=tmp_path)
    assert result.status == 1
    lagged = json.loads((tmp_path / "probe_summary.json").read_text())["lagged_5"]
    assert lagged["diff_vs_base"] == 0.0 and lagged["diff_stderr"] == 0.0
    assert lagged["degenerate"] is True
    check = {c["name"]: c for c in result.checks}["dominance:lagged_5"]
    assert not check["passed"] and check["detail"].startswith("degenerate")


def test_optimality_probe_detects_underinvestment_with_known_drift(tmp_path):
    # Half the optimal weight loses 1/2 (1/2)^2 theta^2 T = 0.0051 of log
    # utility at theta = 0.4 over 64 days; at 16384 paths the paired stderr
    # is about 0.0008, so the expected gap is about 6 stderr.
    cfg = _probe_cfg(0.0)
    cfg.market = cfg.market.with_updates(n_steps=64)
    run_experiment(cfg, out_dir=tmp_path, seed=3, n_paths=16384)
    half = json.loads((tmp_path / "probe_summary.json").read_text())["scaled_0.5"]
    assert half["diff_vs_base"] < 0
    assert half["base_dominates"] is True


def test_optimality_probe_filters_each_chunk_once(tmp_path, monkeypatch):
    # One whole-batch filter per chunk, shared by every policy: run_backtest,
    # handed the estimate, builds no schedule of its own.
    from futopt import experiments, wealth
    from futopt.montecarlo import chunk_layout

    calls, schedules = [], []
    real_filter, real_schedule = experiments.run_filter_batch, wealth.KalmanSchedule

    def counted(*args, **kwargs):
        calls.append(1)
        return real_filter(*args, **kwargs)

    def counted_schedule(*args, **kwargs):
        schedules.append(1)
        return real_schedule(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_filter_batch", counted)
    monkeypatch.setattr(wealth, "KalmanSchedule", counted_schedule)
    cfg = _probe_cfg(0.3)
    assert run_experiment(cfg, out_dir=tmp_path, n_paths=TWO_CHUNKS["n_paths"]).status == 0
    assert len(calls) == len(chunk_layout(TWO_CHUNKS["n_paths"])) == 2
    assert schedules == []


@pytest.mark.parametrize("experiment", ["backtest", "verify-measure"])
def test_backtest_and_verify_measure_step_one_schedule_per_chunk(tmp_path, monkeypatch, experiment):
    # Neither experiment filters the whole batch: each chunk steps one
    # KalmanSchedule inside its own loop.
    from futopt import experiments, filtering, wealth
    from futopt.montecarlo import chunk_layout

    schedules, real = [], filtering.KalmanSchedule

    def counted(*args, **kwargs):
        schedules.append(1)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("whole-batch filter")

    monkeypatch.setattr(experiments, "run_filter_batch", forbidden)
    monkeypatch.setattr(wealth, "KalmanSchedule", counted)
    monkeypatch.setattr(experiments, "KalmanSchedule", counted)
    cfg = _cfg(experiment, strategy={"p_cov0": 0.02})
    assert run_experiment(cfg, out_dir=tmp_path, n_paths=TWO_CHUNKS["n_paths"]).status == 0
    assert len(schedules) == len(chunk_layout(TWO_CHUNKS["n_paths"])) == 2


def test_optimality_probe_trades_with_gearing_caps_and_integer_contracts(tmp_path):
    # the probe's policies trade the strategy section's contract rules, as backtest does
    cfg = load_config(CONFIGS / "known_drift_probe.yaml")
    run_experiment(cfg, out_dir=tmp_path / "default", n_paths=512)
    default = (tmp_path / "default" / "optimality_probe.csv").read_bytes()
    for name, value in (("gearing", 3), ("caps", 50.0), ("integer_contracts", True)):
        out = tmp_path / name
        run_experiment(config_from_dict({**cfg.raw, "strategy": {**cfg.raw["strategy"], name: value}}),
                       out_dir=out, n_paths=512)
        assert (out / "optimality_probe.csv").read_bytes() != default, name


@pytest.mark.parametrize("d", [1, 2])
def test_path0_csvs_parse_back_to_the_ledger(tmp_path, d):
    # every float cell of ledger_0000.csv and positions_0000.csv parses back to
    # path 0's ledger; d = 1 has a density, d = 2 has none, and a cap binds on
    # some steps of both
    market = {"n_steps": 12}
    if d == 2:
        market.update(d=2, sigma=0.2, rho=[[1.0, 0.3], [0.3, 1.0]], alpha=-0.5, f=[50.0, 1000.0],
                      c_spread=[0.001, 0.0002], F0=[100.0, 2.0], beta0=[0.08, -0.04])
    p = _cfg("backtest", market=market).market
    batch = simulate_batch(p, 5, 3)
    cap = np.array([400.0] if d == 1 else [520.0, 2000.0])
    ledger = run_backtest(batch, LogOptimalStrategy(), p, 1e6, cap=cap, theta_max=10.0 if d == 1 else None)
    n, book = p.n_steps, ledger.book
    floats = np.stack([book.pi[0], book.P[0], book.trade[0], book.c_tilde[0], book.cash_cost[0]], axis=-1)

    _write_csv(tmp_path / "ledger.csv", *_ledger_rows(ledger))
    header, *rows = _read_csv(tmp_path / "ledger.csv")
    assert header[4:] == [f"{c}_{j}" for j in range(1, d + 1)
                          for c in ("weight", "position", "trade", "cost_relative", "cost_cash")]
    assert len(rows) == n + 1 and rows[n][4:] == [""] * (5 * d)
    front = np.array([r[:4] for r in rows], dtype=float)
    X = ledger.X[0]
    density = [ledger.gamma * X, ledger.H * X] if d == 1 else [np.full(n + 1, np.nan)] * 2
    assert np.array_equal(front, np.column_stack([ledger.t_grid, X, *density]), equal_nan=True)
    assert np.all(np.isnan(front[:, 2:])) == (d == 2)
    assert np.array_equal(np.array([r[4:] for r in rows[:n]], dtype=float), floats.reshape(n, 5 * d),
                          equal_nan=True)

    _write_csv(tmp_path / "positions.csv", *_position_rows(ledger, batch.F))
    header, *rows = _read_csv(tmp_path / "positions.csv")
    assert header == ["time", "asset", "price", "contract_price", "weight", "position",
                      "trade", "cost_relative", "cost_cash", "clipped"]
    assert [r[1] for r in rows] == [str(j) for _ in range(n) for j in range(1, d + 1)]   # time-major
    assert {r[9] for r in rows} == {"0", "1"}
    assert np.array_equal([int(r[9]) for r in rows], book.clipped[0].ravel())
    back = np.array([r[:1] + r[2:9] for r in rows], dtype=float).reshape(n, d, 8)
    assert np.array_equal(back[:, :, 0], np.repeat(ledger.t_grid[:n, None], d, axis=1))
    source = np.concatenate([batch.F[0, :n, :, None], book.C[0, :, :, None], floats], axis=-1)
    assert np.array_equal(back[:, :, 1:], source, equal_nan=True)


def test_manifest_contents(tmp_path):
    cfg = _cfg("cost-sweep")
    run_experiment(cfg, out_dir=tmp_path, seed=99, n_paths=5)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment"] == "cost-sweep"
    assert manifest["seed"] == 99
    assert manifest["n_paths"] == 5
    assert manifest["config_hash"] == cfg.config_hash()
    for key in ("package_version", "numpy_version", "python_version", "created_at"):
        assert key in manifest


# Two chunks (8192 + 8), so chunk 0 is not the whole run and a pool interleaves.
TWO_CHUNKS = {"n_paths": 8200, "seed": 8}


@pytest.mark.parametrize("experiment, files", [
    ("verify-measure", ["measure_report.csv"]),
    ("backtest", ["ledger_0000.csv", "positions_0000.csv", "summary.json"]),
], ids=["verify-measure", "backtest"])
def test_worker_env_does_not_change_results(tmp_path, monkeypatch, experiment, files):
    from futopt.montecarlo import WORKERS_ENV_VAR

    cfg = _cfg(experiment, mc=TWO_CHUNKS)
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")
    run_experiment(cfg, out_dir=tmp_path / "w1")
    monkeypatch.setenv(WORKERS_ENV_VAR, "3")
    run_experiment(cfg, out_dir=tmp_path / "w3")
    for name in files:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()


def test_backtest_simulates_and_trades_each_chunk_once(tmp_path, monkeypatch):
    from futopt import experiments
    from futopt.montecarlo import chunk_layout

    calls = {"simulate_batch": 0, "run_backtest": 0}
    for name in calls:
        def counted(*args, _fn=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    assert run_experiment(_cfg("backtest", mc=TWO_CHUNKS), out_dir=tmp_path).status == 0
    n_chunks = len(chunk_layout(TWO_CHUNKS["n_paths"]))
    assert calls == {"simulate_batch": n_chunks, "run_backtest": n_chunks}


def test_backtest_strategy_p_cov0_reaches_the_filter(tmp_path):
    import numpy as np

    from futopt import build_strategy, run_backtest, run_filter_batch, simulate_batch

    run_experiment(_cfg("backtest"), out_dir=tmp_path / "default")
    run_experiment(_cfg("backtest", strategy={"p_cov0": 0.5}), out_dir=tmp_path / "scalar")
    cfg = _cfg("backtest", strategy={"p_cov0": [[0.5]]})
    run_experiment(cfg, out_dir=tmp_path / "matrix")

    # chunk 0, the whole run here, traded on the estimate from that prior
    s, p = cfg.strategy, cfg.market
    batch = simulate_batch(p, np.random.SeedSequence(cfg.mc.seed).spawn(1)[0], cfg.mc.n_paths)
    beta_hat = run_filter_batch(batch.delta_R(), p, np.array([[0.5]])).beta_hat
    ledger = run_backtest(batch, build_strategy(cfg), p, s.x0, beta_hat=beta_hat, theta_max=s.theta_max)
    _write_csv(tmp_path / "oracle.csv", *_ledger_rows(ledger))

    got = (tmp_path / "matrix" / "ledger_0000.csv").read_bytes()
    assert got != (tmp_path / "default" / "ledger_0000.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes() == (tmp_path / "scalar" / "ledger_0000.csv").read_bytes()


@pytest.mark.parametrize("experiment, artifact", [
    ("verify-measure", "measure_report.csv"),
    ("optimality-probe", "optimality_probe.csv"),
    ("duality-report", "duality.json"),
])
def test_strategy_p_cov0_reaches_every_filter(tmp_path, experiment, artifact):
    mc = {"n_paths": 256, "seed": 3}
    run_experiment(_cfg(experiment, mc=mc), out_dir=tmp_path / "default")
    run_experiment(_cfg(experiment, mc=mc, strategy={"p_cov0": 0.5}), out_dir=tmp_path / "prior")
    got = (tmp_path / "prior" / artifact).read_bytes()
    assert got != (tmp_path / "default" / artifact).read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_backtest_path0_artifacts_match_serial_chunk0_oracle(tmp_path, monkeypatch, workers):
    from dataclasses import replace

    from futopt import (build_batch, build_measure_state, build_strategy, chunk_layout,
                        realized_monetary_vol, relative_risk, run_backtest, simulate_batch,
                        simulate_drift)
    from futopt.montecarlo import WORKERS_ENV_VAR

    # gearing and a cap that bind on part of the steps: every event kind fires
    cfg = _cfg("backtest", mc=TWO_CHUNKS, strategy={"x0": 3000.0, "caps": 20.0, "gearing": 40.0})
    monkeypatch.setenv(WORKERS_ENV_VAR, workers)
    run_experiment(cfg, out_dir=tmp_path / "run")

    # every chunk rebuilt serially, chunk i as the i-th child of the root seed sequence
    s = cfg.strategy
    p, cap = cfg.market.with_updates(k=np.asarray(s.gearing, float)), np.asarray(s.caps, float)
    layout = chunk_layout(TWO_CHUNKS["n_paths"])
    children = np.random.SeedSequence(TWO_CHUNKS["seed"]).spawn(len(layout))
    batches = [simulate_batch(p, child, size) for child, (_, size) in zip(children, layout)]
    ledgers = [run_backtest(b, build_strategy(cfg), p, s.x0, cap=cap, theta_max=s.theta_max) for b in batches]
    # path 0 alone, as a batch of one from its own increments, with its
    # density built on the whole path from the costs it paid
    one = build_batch(p, batches[0].dW[:1], simulate_drift(p, bulk_draws(p, children[0], 1)[1]))
    one_ledger = run_backtest(one, build_strategy(cfg), p, s.x0, cap=cap)
    theta = relative_risk(one.beta[:, : p.n_steps] - np.nan_to_num(one_ledger.book.c_tilde, nan=0.0), p)
    ms = build_measure_state(theta, one.dW, p, s.theta_max)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    _write_csv(oracle / "ledger_0000.csv", *_ledger_rows(replace(one_ledger, gamma=ms.gamma, H=ms.H[0])))
    _write_csv(oracle / "positions_0000.csv", *_position_rows(one_ledger, one.F))
    for name in ("ledger_0000.csv", "positions_0000.csv"):
        assert _read_csv(tmp_path / "run" / name) == _read_csv(oracle / name)

    # every other summary field covers all paths of both chunks
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    X_T = np.concatenate([led.X_T for led in ledgers])
    HX = np.concatenate([led.H_T * led.X_T for led in ledgers])
    dead = np.concatenate([led.dead for led in ledgers])
    n = TWO_CHUNKS["n_paths"]
    counts = {name: sum(int(led.events[name].sum()) for led in ledgers)
              for name in ("admissibility_violations", "clip_events", "cash_cost_fallbacks")}
    assert all(c > 0 for c in counts.values()), counts
    assert 0 < counts["clip_events"] < n * p.n_steps
    exact = {"n_paths": n, "x0": s.x0, "terminal_min": X_T.min(), "terminal_max": X_T.max(),
             "dead_paths": int(dead.sum()), **counts,
             "realized_monetary_vol": realized_monetary_vol(ledgers[0], p, s.h_window)}
    close = {"terminal_std": X_T.std(ddof=1), "terminal_mean": X_T.mean(),
             "terminal_stderr": X_T.std(ddof=1) / np.sqrt(n), "dead_fraction": dead.mean(),
             "budget_mean_HX": HX.mean(), "budget_stderr": HX.std(ddof=1) / np.sqrt(n),
             "budget_z_score": (HX.mean() - s.x0) / (HX.std(ddof=1) / np.sqrt(n))}
    assert set(summary) == set(exact) | set(close)
    for key, value in exact.items():
        assert summary[key] == value, key
    for key, value in close.items():
        assert summary[key] == pytest.approx(value, rel=1e-12), key
