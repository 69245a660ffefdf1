"""The benchmark's span tracer still reads what futopt returns.

perfbench/tracer.py wraps futopt's public functions and reads fields of
their results (WealthLedger, FilterHistory, PathBatch).  A renamed field
breaks only a traced benchmark run, so one traced backtest at a tiny size
runs here, through perfbench/child.py as the benchmark runs it.
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


def test_traced_backtest_reports_its_layers(tmp_path):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(TINY_BACKTEST)
    env = dict(os.environ, FUTOPT_WORKERS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--root", str(ROOT),
           "--config", str(cfg), "--experiment", "backtest", "--out", str(tmp_path / "out"),
           "--trace", "1", "--t0", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "error" not in report, report["error"]
    assert report["exit"] == 0, report["lines"]
    layers = report["layers"]
    assert layers["wealth.backtest_calls"] == 1
    assert layers["wealth.step_iters"] == 16
    # The batch is four float arrays, F, R and beta on the 17-point grid and
    # dW on its 16 steps, plus t_grid and the per-path guard_events.
    n_paths, n = 64, 16
    floats = 3 * n_paths * (n + 1) + n_paths * n + (n + 1)
    assert layers["market.computed_bytes"] == 8 * floats + np.dtype(int).itemsize * n_paths
