import csv
import json

import pytest

from futopt import config_from_dict, run_experiment


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


def test_backtest_path0_artifacts_match_serial_chunk0_oracle(tmp_path):
    import numpy as np

    from futopt import build_batch, build_strategy, run_backtest, simulate_batch, summary_dict
    from futopt.experiments import _strategy_measure
    from futopt.montecarlo import DEFAULT_CHUNK
    from futopt.trading import write_position_ledger
    from futopt.wealth import write_wealth_csv

    cfg = _cfg("backtest", mc=TWO_CHUNKS)
    run_experiment(cfg, out_dir=tmp_path / "run")

    # chunk 0 rebuilt serially, as the first child of the root seed sequence
    s, p = cfg.strategy, cfg.market
    seed_seq = np.random.SeedSequence(TWO_CHUNKS["seed"]).spawn(1)[0]
    batch = simulate_batch(p, seed_seq, min(DEFAULT_CHUNK, TWO_CHUNKS["n_paths"]))
    ledger = run_backtest(batch, build_strategy(cfg), p, s.x0, theta_max=s.theta_max)
    # path 0 alone, as a batch of one from its own increments
    one = build_batch(p, batch.dW[:1], batch.dW2[:1])
    one_ledger = run_backtest(one, build_strategy(cfg), p, s.x0)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    write_wealth_csv(oracle / "ledger_0000.csv", one_ledger, _strategy_measure(one, one_ledger, p, s.theta_max))
    write_position_ledger(oracle / "positions_0000.csv", one_ledger.book, one.F, one.t_grid)
    for name in ("ledger_0000.csv", "positions_0000.csv"):
        assert _read_csv(tmp_path / "run" / name) == _read_csv(oracle / name)

    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    expected = summary_dict(ledger, p, s.x0, ledger.H_T, s.h_window)
    for key in ("x0", "terminal_std", "terminal_min", "terminal_max",
                "admissibility_violations", "clip_events", "cash_cost_fallbacks",
                "dead_paths", "realized_monetary_vol"):
        assert summary[key] == expected[key], key
    assert summary["n_paths"] == TWO_CHUNKS["n_paths"]
