import copy
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from futopt import (
    ConfigError,
    LogOptimalStrategy,
    MarketParams,
    ZeroStrategy,
    build_strategy,
    config_from_dict,
    ingest_prices,
    load_config,
    run_backtest,
    simulate_batch,
)
from futopt.cli import main
from futopt.config import CostSweepConfig, StrategyConfig


def _tree(**extra):
    tree = {"experiment": "simulate", "market": {"d": 1}}
    tree.update(extra)
    return tree


# -- parsing and defaults ---------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = config_from_dict(_tree())
    assert cfg.market.d == 1
    assert cfg.market.n_steps == 252
    assert cfg.market.sigma[0, 0] == 0.2
    assert cfg.mc.n_paths == 1000
    assert cfg.strategy.mode == "soft_threshold"
    assert cfg.strategy.theta_max == 10.0
    assert cfg.strategy.h_window == 20
    assert cfg.outputs.dir == "out"


def test_delta_t_accepts_fraction_strings():
    cfg = config_from_dict(_tree(market={"d": 1, "delta_t": "1/252"}))
    assert cfg.market.delta_t == pytest.approx(1.0 / 252, rel=1e-15)
    with pytest.raises(ConfigError, match="delta_t"):
        config_from_dict(_tree(market={"d": 1, "delta_t": "one week"}))


def test_scientific_notation_strings_coerce():
    # YAML 1.1 reads 1.0e6 as a string; the loader must still accept it
    cfg = config_from_dict(_tree(strategy={"x0": "1.0e6"}))
    assert cfg.strategy.x0 == 1e6


def test_market_errors_name_section_and_field():
    with pytest.raises(ConfigError, match="m must lie in \\[0,1\\]"):
        config_from_dict(_tree(market={"d": 1, "m": 1.5}))
    rho = [[1.0, 0.99], [0.99, 1.0]]
    bad = [[1.0, 2.0], [2.0, 1.0]]
    config_from_dict(_tree(market={"d": 2, "rho": rho}))  # sanity: valid
    with pytest.raises(ConfigError, match="rho"):
        config_from_dict(_tree(market={"d": 2, "rho": bad}))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="typo_field"):
        config_from_dict(_tree(mc={"typo_field": 3}))
    with pytest.raises(ConfigError, match="experiment"):
        config_from_dict({"experiment": "frobnicate", "market": {"d": 1}})


def test_policy_and_mode_validated():
    with pytest.raises(ConfigError, match="policy"):
        config_from_dict(_tree(strategy={"policy": "martingale_doubling"}))
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict(_tree(strategy={"mode": "yolo"}))


SHIPPED = {
    path.name: yaml.safe_load(path.read_text())
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.yaml"))
}


def _keys(tree, prefix=()):
    """Every key path of a config tree: sections, fields, nested fields."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _keys(value, prefix + (key,))


# Integers stay small: market.d sizes d x d matrices.
_SCALARS = st.one_of(
    st.text(max_size=8), st.booleans(), st.integers(-100, 100), st.floats(-1e3, 1e3),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, -1e300]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from([(name, key) for name, tree in SHIPPED.items() for key in _keys(tree)]),
    st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.lists(st.lists(_SCALARS, max_size=2), max_size=2)),
)
def test_mutated_shipped_config_succeeds_or_raises_config_error(field, value):
    name, key = field
    tree = copy.deepcopy(SHIPPED[name])
    node = tree
    for part in key[:-1]:
        node = node[part]
    node[key[-1]] = value
    try:
        config_from_dict(tree)
    except ConfigError:
        pass


TINY_BACKTEST = {
    "experiment": "backtest",
    "market": {"d": 1, "n_steps": 8, "sigma": 0.2, "alpha": -0.5, "varsigma": 0.1, "f": 50.0,
               "c_spread": 0.001, "m": 0.2, "r": 0.03, "beta0": 0.08},
    "mc": {"n_paths": 8, "seed": 1},
    # the test draws strategy.policy; optimality-probe always trades log-optimal weights
    "strategy": {"x0": 1.0e6, "policy": "constant", "const_weights": 0.5},
}
_FIELDS = ([("strategy", name) for name in StrategyConfig.__dataclass_fields__]
           + [("market", name) for name in MarketParams.__dataclass_fields__]
           + [("cost_sweep", name) for name in CostSweepConfig.__dataclass_fields__])
_SHAPED = [("strategy", name) for name in ("p_cov0", "caps", "gearing", "const_weights")]   # shape (d,) or (d, d)
_NUMBERS = st.one_of(st.integers(-3, 300), st.sampled_from([float("nan"), float("inf"), float("-inf")]))
_LEAVES = st.one_of(st.text(max_size=6), st.booleans(), _NUMBERS)
_VALUES = st.one_of(   # nested lists of numbers as often as anything else: they reach the shape checks
    st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=9),
    st.recursive(st.integers(-3, 300), lambda inner: st.lists(inner, max_size=3), max_leaves=9),
)


# Fifty draws rarely pair the random policy with a bad bound or empty the
# sweep, so those once-uncaught cases are pinned as explicit examples.
@settings(max_examples=50, deadline=None, derandomize=True)
@example("random", [(("strategy", "bound"), -1)])
@example("random", [(("strategy", "bound"), 1e308)])
@example("zero", [(("cost_sweep", "delta_ts"), [])])
@given(st.sampled_from(["zero", "constant", "random", "log_optimal"]),
       st.lists(st.tuples(st.sampled_from(_SHAPED) | st.sampled_from(_FIELDS), _VALUES), min_size=1, max_size=2))
def test_mutated_tiny_run_exits_0_1_or_2_without_a_traceback(policy, mutations):
    import contextlib
    import io
    import tempfile

    tree = copy.deepcopy(TINY_BACKTEST)
    tree["strategy"]["policy"] = policy
    for (section, key), value in mutations:
        if key == "n_steps" and type(value) is int:
            value = min(value, 8)
        tree.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "mutated.yaml"
        cfg.write_text(yaml.safe_dump(tree))
        for experiment in ("simulate", "backtest", "verify-measure", "cost-sweep", "optimality-probe"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([experiment, "--config", str(cfg), "--out", str(Path(tmp) / experiment)])
            assert code in (0, 1, 2)
            assert code != 1 or "[FAIL]" in stdout.getvalue()


def test_build_strategy_dispatch():
    assert isinstance(build_strategy(config_from_dict(_tree(strategy={"policy": "zero"}))),
                      ZeroStrategy)
    with pytest.raises(ConfigError, match="const_weights"):
        build_strategy(config_from_dict(_tree(strategy={"policy": "constant"})))


def test_yaml_errors_carry_position(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("market:\n  d: [1, 2\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(p)


def test_config_hash_ignores_runtime_fields():
    a = config_from_dict(_tree(mc={"workers": 1}, outputs={"dir": "a"}))
    b = config_from_dict(_tree(mc={"workers": 8}, outputs={"dir": "b"}))
    c = config_from_dict(_tree(mc={"seed": 99}))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


#: Every manifest records its config's hash, so a hash that moves changes
#: every artifact set's bytes: a move must be deliberate and update this table.
SHIPPED_CONFIG_HASHES = {
    "daily_backtest.yaml": "a86889c7c204fbd1ebd04190bef7b704fa228d650dc4fe0da3f55a0624271eef",
    "known_drift_probe.yaml": "c9550b0961d644c8e8d02fb8a7c4e35fd6658a3f27e44531146f556c56c2635c",
    "minimal.yaml": "b8ff7c3b16a160c3bf286591829aec40222471aede12d6e3983b6ed1a67f4a76",
    "two_asset_measure.yaml": "822ed963a03322558e2588db99a1c2190ffed7760b5c0990500589a272f7cb0a",
}


def test_shipped_config_hashes_are_pinned():
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(p.name for p in configs.glob("*.yaml")) == sorted(SHIPPED_CONFIG_HASHES)
    for name, want in SHIPPED_CONFIG_HASHES.items():
        assert load_config(configs / name).config_hash() == want, name


# -- price ingestion --------------------------------------------------------

def _write(tmp_path, rows, header="time,price_1"):
    p = tmp_path / "prices.csv"
    p.write_text(header + "\n" + "\n".join(rows) + "\n")
    return p


def test_ingest_constant_prices(tmp_path):
    p = _write(tmp_path, [f"{i/252},100.0" for i in range(5)])
    state = ingest_prices(p, f=50.0)
    assert state.F.shape == (1, 5, 1)
    assert np.all(state.R == 0.0)
    assert state.beta is None and state.dW is None and state.guard_events is None


def test_ingest_return_arithmetic(tmp_path):
    p = _write(tmp_path, ["0.0,100.0", f"{1/252},101.0", f"{2/252},101.0"])
    state = ingest_prices(p, f=1.0)
    dR = state.delta_R()[0]
    assert dR[0, 0] == pytest.approx(0.01, rel=1e-12)
    assert dR[1, 0] == 0.0


def test_backtest_on_ingested_prices_matches_simulated_batch(tmp_path):
    # the observable prices of a simulated path, round-tripped through CSV,
    # trade as the path itself: only the returns differ, by one rounding
    p = MarketParams(d=2, n_steps=40, delta_t=1.0 / 252, sigma=[[0.2, 0.05], [0.0, 0.25]],
                     rho=[[1.0, 0.3], [0.3, 1.0]], alpha=-0.5, varsigma=0.1, f=[50.0, 1000.0],
                     c_spread=[0.001, 0.0002], m=0.1, r=0.02, k=1.0, F0=[100.0, 2.0],
                     beta0=[0.08, -0.04])
    sim = simulate_batch(p, 3, 1)
    rows = [",".join(repr(float(v)) for v in (t, *F)) for t, F in zip(sim.t_grid, sim.F[0])]
    ingested = ingest_prices(_write(tmp_path, rows, header="time,price_1,price_2"), f=p.f)
    assert ingested.beta is None and ingested.n_paths == 1

    a = run_backtest(sim, LogOptimalStrategy(), p, x0=1e6)
    b = run_backtest(ingested, LogOptimalStrategy(), p, x0=1e6)
    assert np.count_nonzero(a.book.P) > 0
    assert np.allclose(b.X, a.X, rtol=1e-12, atol=0.0)
    assert np.allclose(b.book.P, a.book.P, rtol=1e-12, atol=0.0)
    from futopt.experiments import _ledger_rows, _write_csv

    _write_csv(tmp_path / "ledger.csv", *_ledger_rows(b))
    assert len((tmp_path / "ledger.csv").read_text().splitlines()) == p.n_steps + 2


def test_ingest_rejects_jagged_grid(tmp_path):
    p = _write(tmp_path, ["0.0,100", "0.5,101", "0.7,102"])
    with pytest.raises(ConfigError, match="equidistant"):
        ingest_prices(p, f=1.0)
    p = _write(tmp_path, ["0.0,100", "0.0,101"])
    with pytest.raises(ConfigError, match="increasing"):
        ingest_prices(p, f=1.0)


def test_ingest_rejects_bad_prices_with_row(tmp_path):
    p = _write(tmp_path, ["0.0,100", "0.5,-3", "1.0,102"])
    with pytest.raises(ConfigError, match="row 3"):
        ingest_prices(p, f=1.0)
    p = _write(tmp_path, ["0.0,100", "0.5,101"], header="date,price_1")
    with pytest.raises(ConfigError, match="header"):
        ingest_prices(p, f=1.0)


# -- command line -----------------------------------------------------------

MINI_YAML = """\
experiment: simulate
market:
  d: 1
  n_steps: 16
  delta_t: 1/252
  sigma: 0.2
  beta0: 0.08
mc:
  n_paths: 2
  seed: 5
"""


def test_cli_exit_codes(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("market:\n  d: 0\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(MINI_YAML)
    assert main(["simulate", "--config", str(cfg), "--paths", "0"]) == 2


def test_cli_config_that_is_a_directory_exits_2_naming_it(tmp_path, capsys):
    assert main(["backtest", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def test_cli_output_under_a_file_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(MINI_YAML)
    out = cfg / "sub"
    assert main(["cost-sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err


@pytest.mark.parametrize("experiment", ["backtest", "verify-measure", "duality-report", "optimality-probe"])
def test_cli_one_path_exits_2_where_checks_need_a_stderr(tmp_path, capsys, experiment):
    one = tmp_path / "one.yaml"
    one.write_text(MINI_YAML.replace("n_paths: 2", "n_paths: 1"))
    two = tmp_path / "two.yaml"
    two.write_text(MINI_YAML)
    out = tmp_path / "o"
    assert main([experiment, "--config", str(one), "--out", str(out)]) == 2
    assert main([experiment, "--config", str(two), "--out", str(out), "--paths", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("n_paths (--paths) >= 2, got 1") == 2 and "standard error" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["simulate", "cost-sweep"])
def test_cli_one_path_runs_where_no_check_needs_a_stderr(tmp_path, experiment):
    cfg = tmp_path / "two.yaml"
    cfg.write_text(MINI_YAML)
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o"), "--paths", "1"]) == 0


def test_oversized_d_fails_fast_naming_d_and_the_limit(tmp_path, capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"d = 20000 exceeds the limit of 256"):
            config_from_dict({"market": {"d": 20000}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    cfg = tmp_path / "wide.yaml"
    cfg.write_text("market:\n  d: 257\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "limit of 256" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("mc", "n_paths", "abc"),
    ("mc", "n_paths", 1.5),
    ("mc", "seed", True),
    ("mc", "seed", -3),          # numpy seeds only from nonnegative integers
    ("mc", "seed", None),
    ("mc", "workers", -3),       # 0 means unset; below that is no worker count
    ("strategy", "seed", -2),
    ("strategy", "h_window", None),
    ("market", "d", "two"),
    ("market", "n_steps", 2.5),
])
def test_cli_bad_integer_fields_exit_2_naming_the_field(tmp_path, capsys, section, key, value):
    import yaml

    tree = yaml.safe_load(MINI_YAML)
    tree.setdefault(section, {})[key] = value
    if section == "strategy":
        tree[section]["policy"] = "random"
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and "Traceback" not in err


def test_cli_negative_seed_flag_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(MINI_YAML)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_bad_workers_variable_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "ok.yaml"
    cfg.write_text(MINI_YAML)
    monkeypatch.setenv("FUTOPT_WORKERS", "abc")
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FUTOPT_WORKERS must be an integer") and "Traceback" not in err


@pytest.mark.parametrize("section, key, value", [
    ("strategy", "x0", "abc"),
    ("strategy", "theta_max", "abc"),
    ("strategy", "bound", [1.0]),
    ("strategy", "x0", None),
    ("market", "sigma", "abc"),
    ("market", "rho", [[1.0, 0.3], [0.3]]),
    ("market", "delta_t", [0.004]),
    ("outputs", "formats", 3),
    ("cost_sweep", "delta_ts", 0.01),
    ("cost_sweep", "delta_ts", ["abc"]),
    ("cost_sweep", "P_prev", "abc"),
    ("cost_sweep", "P_now", True),
    ("strategy", "x0", float("nan")),
    ("strategy", "x0", float("inf")),
    ("strategy", "bound", float("nan")),
    ("strategy", "theta_max", float("nan")),
    ("strategy", "theta_max", float("-inf")),
    ("cost_sweep", "P_prev", float("nan")),
    ("cost_sweep", "delta_ts", [0.01, float("inf")]),
    ("market", "delta_t", "1/0"),
    ("strategy", "caps", "abc"),
    ("strategy", "gearing", "abc"),
    ("strategy", "p_cov0", "abc"),
    ("strategy", "const_weights", [1.0, float("nan")]),
    ("strategy", "p_cov0", [[1, 2], [3, 4]]),   # d = 1: a scalar or (1, 1) / (1,) only
    ("strategy", "caps", [1, 2, 3]),
    ("strategy", "const_weights", [1, 2]),
    ("strategy", "gearing", [[1.0]]),
    ("strategy", "p_cov0", -5),
    ("strategy", "p_cov0", [[-0.5]]),
    ("strategy", "gearing", -1),
    ("strategy", "gearing", 0.0),
    ("strategy", "caps", -1.0),
    ("strategy", "integer_contracts", 3),
    ("strategy", "literal_product", "yes"),
    ("strategy", "bound", -1),          # numpy cannot draw from [1, -1]
    ("strategy", "bound", 1e308),       # nor from a range wider than the largest float
    ("cost_sweep", "delta_ts", []),
    ("strategy", "h_window", 0),        # a realized volatility needs two returns
    ("strategy", "h_window", -3),
    ("strategy", "h_window", 1),
])
def test_cli_bad_float_and_list_fields_exit_2_naming_the_field(
    tmp_path, capsys, section, key, value
):
    import yaml

    tree = yaml.safe_load(MINI_YAML)
    tree.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["cost-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("p_cov0", [[[1.0, 0.5], [0.2, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["asymmetric", "indefinite"])
def test_p_cov0_must_be_symmetric_psd(p_cov0):
    tree = {"market": {"d": 2}, "strategy": {"p_cov0": p_cov0}}
    with pytest.raises(ConfigError, match="strategy.p_cov0 must be symmetric positive semidefinite"):
        config_from_dict(tree)
    tree["strategy"]["p_cov0"] = [[1.0, 1.0], [1.0, 1.0]]   # singular but semidefinite
    config_from_dict(tree)


@pytest.mark.parametrize("p_cov0", [0, 0.5, [[0.5]]])
def test_cli_semidefinite_p_cov0_runs(tmp_path, p_cov0):
    import yaml

    tree = yaml.safe_load(MINI_YAML)
    tree["strategy"] = {"p_cov0": p_cov0}
    cfg = tmp_path / "prior.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_cli_theta_max_inf_means_no_cap(tmp_path):
    import yaml

    tree = yaml.safe_load(MINI_YAML)
    tree["strategy"] = {"theta_max": float("inf")}
    cfg = tmp_path / "nocap.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    summary = (tmp_path / "o" / "summary.json").read_text()
    assert "NaN" not in summary and "Infinity" not in summary


def test_cli_nan_martingale_mean_fails_its_check_naming_the_cause(tmp_path, capsys):
    # At delta_t = 13, Z_T and zeta_T underflow to 0 on some paths: their 0/0
    # makes the mean of Z_T / zeta_T NaN, which must fail its check, not pass
    # it with z = 0.
    tree = {"experiment": "verify-measure", "mc": {"n_paths": 64, "seed": 1},
            "market": {"d": 1, "n_steps": 8, "delta_t": 13, "varsigma": 0.1, "beta0": 0.08}}
    cfg = tmp_path / "nan.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["verify-measure", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL] martingale:E[Z_T/zeta_T] (mean nan, target 1.0, z nan: non-finite mean)" in out
    assert err == ""
    failed = json.loads((tmp_path / "o" / "failure_summary.json").read_text())["failed_checks"]
    assert {"name": "martingale:E[Z_T/zeta_T]", "passed": False,
            "detail": "mean nan, target 1.0, z nan: non-finite mean"} in failed


def test_cli_non_finite_zeta_gap_fails_its_check_naming_the_cause(tmp_path, capsys):
    # At delta_t = 13 the growth factor exp(u) of 1/zeta overflows on a path
    # of seed 2: the recursion gap is NaN, which must fail its check quietly,
    # whichever chunk it came from.
    tree = {"experiment": "verify-measure", "mc": {"n_paths": 64, "seed": 2},
            "market": {"d": 1, "n_steps": 8, "delta_t": 13, "varsigma": 0.1, "beta0": 0.08}}
    cfg = tmp_path / "gap.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["verify-measure", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    detail = "max relative gap nan: the growth factor exp(u) of 1/zeta overflowed or underflowed"
    assert f"[FAIL] zeta_recursion_gap ({detail})" in out
    assert err == ""
    failed = json.loads((tmp_path / "o" / "failure_summary.json").read_text())["failed_checks"]
    assert {"name": "zeta_recursion_gap", "passed": False, "detail": detail} in failed


@pytest.mark.parametrize("caps", [None, 50.0], ids=["uncapped", "capped"])
def test_cli_overflowing_gearing_names_the_position_or_is_clipped(tmp_path, capsys, caps):
    # gearing 1e308 overflows X k pi / C.  Uncapped, the first step names the
    # position (exit 2); a cap clips it, and the run goes on.  No warning either way.
    tree = yaml.safe_load(MINI_YAML)
    tree.update(experiment="backtest", mc={"n_paths": 16, "seed": 5})
    tree["strategy"] = {"gearing": 1e308, "mode": "zero_cost", **({} if caps is None else {"caps": caps})}
    cfg = tmp_path / "gear.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    code = main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    if caps is None:
        assert code == 2
        assert err.startswith("error: position X k pi / C is not finite at step 0 on path 0: X = 1e+06, "
                              "k = [1e+308], pi = ["), err
    else:
        assert code in (0, 1) and err == ""
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["clip_events"] == 16 * 16 and np.isfinite(summary["terminal_mean"])


def test_float_fields_keep_their_value_and_type():
    cfg = config_from_dict(_tree(strategy={"x0": 1000000, "theta_max": "2.5e0"},
                                 cost_sweep={"delta_ts": [0.5, "1e-2"], "P_prev": 3}))
    assert cfg.strategy.x0 == 1000000 and isinstance(cfg.strategy.x0, int)
    assert cfg.strategy.theta_max == 2.5
    assert cfg.cost_sweep.delta_ts == (0.5, 0.01)
    assert cfg.raw["strategy"]["x0"] == 1000000 and cfg.raw["cost_sweep"]["P_prev"] == 3


def test_integral_floats_accepted_for_integer_fields():
    cfg = config_from_dict(_tree(market={"d": 1, "n_steps": "1.6e1"}, mc={"n_paths": 1e4}))
    assert cfg.market.n_steps == 16 and cfg.mc.n_paths == 10_000


def test_cli_simulate_writes_artifacts(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(MINI_YAML)
    out = tmp_path / "run1"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "path_0000.csv").exists()
    assert (out / "path_0001.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "simulate"
    assert manifest["seed"] == 5
    assert "config_hash" in manifest and "created_at" in manifest
    assert "wrote" in capsys.readouterr().out


def test_cli_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(MINI_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("path_0000.csv", "path_0001.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("created_at"), m2.pop("created_at")
    assert m1 == m2


def test_cli_seed_override_changes_paths(tmp_path):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(MINI_YAML)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                 "--seed", "6"]) == 0
    assert (out1 / "path_0000.csv").read_bytes() != (out2 / "path_0000.csv").read_bytes()
