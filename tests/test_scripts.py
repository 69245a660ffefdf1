"""Smoke tests for scripts/: each runs end to end at a tiny size."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from futopt.config import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cost_frontier(tmp_path):
    out = tmp_path / "frontier.csv"
    proc = _run("cost_frontier.py", "--paths", 50, "--spreads", 0, 0.001, "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(out)
    assert rows[0] == ["c_spread", "mode", "mean_log_terminal", "mean_terminal"]
    assert [(r[0], r[1]) for r in rows[1:]] == [
        ("0.0", "soft_threshold"), ("0.0", "zero_cost"),
        ("0.001", "soft_threshold"), ("0.001", "zero_cost"),
    ]


def test_drift_recovery(tmp_path):
    out = tmp_path / "recovery.csv"
    proc = _run("drift_recovery.py", "--paths", 50, "--steps", 40, "--out", out)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(out)
    assert rows[0] == ["step", "time", "rmse", "posterior_sd"]
    assert [int(r[0]) for r in rows[1:]] == list(range(41))


def test_run_pipeline(tmp_path):
    proc = _run("run_pipeline.py", "--config", "configs/daily_backtest.yaml", "--paths", 64,
                "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    produced = {p.name for p in tmp_path.iterdir()}
    assert produced == {name.replace("-", "_") for name in EXPERIMENTS}
    assert {p.name for p in (tmp_path / "backtest").iterdir()} == {
        "ledger_0000.csv", "positions_0000.csv", "summary.json", "manifest.json",
    }
    for sub in produced:
        assert (tmp_path / sub / "manifest.json").exists()


def test_artifact_digests(tmp_path):
    # one line per (experiment, config, workers); the artifacts are the same
    # bytes at 1 and 2 workers, and each experiment's differ from the others'
    args = ("--out", tmp_path, "--paths", 4, "--config", "configs/minimal.yaml")
    proc = _run("artifact_digests.py", *args)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:3] for line in lines] == [
        [name, "minimal.yaml", f"workers={w}"] for name in EXPERIMENTS for w in (1, 2)
    ]
    assert all(line[3] in ("exit=0", "exit=1") for line in lines)
    digests = [line[4] for line in lines]
    assert digests[0::2] == digests[1::2]
    assert len(set(digests)) == len(EXPERIMENTS)
    assert (tmp_path / "minimal" / "backtest" / "w2" / "summary.json").exists()

    rerun = _run("artifact_digests.py", *args)   # into the same, now full, directory
    assert rerun.returncode == 2 and "not empty" in rerun.stderr


def test_layer_timings():
    proc = _run("layer_timings.py", "--paths", 64, "--steps", 16, "--repeat", 1)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["paths"], report["steps"], report["repeat"]) == (64, 16, 1)
    assert list(report["seconds"]) == [
        "simulate_batch", "run_filter_batch", "strategy_weights", "run_backtest_own_filter",
        "run_backtest_given_density", "run_backtest_given_no_density", "run_backtest_given_density_d2",
        "run_backtest_given_density_absorbed", "build_measure_state", "value_arbitration",
        "double_conjugate_grid_3x", "grid_sup_4001", "write_csv_ledger",
    ]
    assert all(s > 0 for s in report["seconds"].values())
    assert 0.5 < report["absorbed_fraction"] <= 1.0
