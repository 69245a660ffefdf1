"""The benchmark's span tracer still reads what futopt returns.

perfbench/tracer.py wraps futopt's public functions and reads fields of
their results (WealthLedger, FilterHistory, PathBatch).  A renamed field
breaks only a traced benchmark run, so one traced backtest and one traced
verify-measure, duality-report and optimality-probe run here at a tiny size,
through perfbench/child.py as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

TINY_BACKTEST = """\
experiment: backtest
market:
  d: 1
  n_steps: 16
  sigma: 0.2
  beta0: 0.08
  alpha: -0.5
  varsigma: 0.1
  f: 50.0
  c_spread: 0.001
mc:
  n_paths: 64
  seed: 3
"""


TINY_MEASURE = """\
experiment: verify-measure
market:
  d: 2
  n_steps: 16
  sigma: 0.25
  rho: [[1.0, 0.3], [0.3, 1.0]]
  alpha: -0.5
  varsigma: 0.1
  f: [50.0, 1000.0]
  F0: [100.0, 2.0]
  beta0: [0.08, -0.04]
mc:
  n_paths: 64
  seed: 3
"""


def _traced_layers(tmp_path, tree: str, experiment: str) -> dict:
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(tree)
    env = dict(os.environ, FUTOPT_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--root", str(ROOT),
           "--config", str(cfg), "--experiment", experiment, "--out", str(tmp_path / "out"),
           "--trace", "1", "--t0", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "error" not in report, report["error"]
    assert report["exit"] == 0, report["lines"]
    return report["layers"]


def _batch_bytes(n_paths: int, n: int, d: int) -> int:
    """F, R and beta on the (n + 1)-point grid and dW on its n steps, plus
    t_grid and the per-path guard_events."""
    floats = 3 * n_paths * (n + 1) * d + n_paths * n * d + (n + 1)
    return 8 * floats + np.dtype(int).itemsize * n_paths


def test_traced_backtest_reports_its_layers(tmp_path):
    layers = _traced_layers(tmp_path, TINY_BACKTEST, "backtest")
    assert layers["wealth.backtest_calls"] == 1
    assert layers["wealth.step_iters"] == 16
    assert layers["market.computed_bytes"] == _batch_bytes(64, 16, 1)


def test_traced_verify_measure_reports_its_layers(tmp_path):
    # The chunk's step loop calls the measure layer on every step.
    layers = _traced_layers(tmp_path, TINY_MEASURE, "verify-measure")
    assert layers["measure.calls"] > 0
    assert layers["market.simulate_calls"] == 1
    assert layers["market.computed_bytes"] == _batch_bytes(64, 16, 2)


def test_traced_duality_report_reports_its_layers(tmp_path):
    # The value arbitration takes theta_hat from the measure layer on every step.
    tree = TINY_BACKTEST.replace("experiment: backtest", "experiment: duality-report")
    layers = _traced_layers(tmp_path, tree, "duality-report")
    assert layers["market.simulate_calls"] == 1
    assert layers["market.computed_bytes"] == _batch_bytes(64, 16, 1)
    assert layers["measure.calls"] >= 16
    assert layers["utility.oracle_evals"] > 0


def test_traced_optimality_probe_reports_its_layers(tmp_path):
    # One whole-batch filter per chunk, shared by the base, two scaled and
    # one lagged policy (varsigma > 0), each a backtest over the 16 steps.
    tree = TINY_BACKTEST.replace("experiment: backtest", "experiment: optimality-probe")
    layers = _traced_layers(tmp_path, tree, "optimality-probe")
    assert layers["market.simulate_calls"] == 1
    assert layers["market.computed_bytes"] == _batch_bytes(64, 16, 1)
    assert layers["filtering.filter_calls"] == 1
    assert layers["filtering.kalman_steps"] == 16
    assert layers["wealth.backtest_calls"] == 4
    assert layers["wealth.step_iters"] == 4 * 16
