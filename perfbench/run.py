"""futopt benchmark: the shipped CLI experiments, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload backtest_daily --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

The load is a closed loop with one client: one experiment at a time, each in
a fresh child process (``child.py``), because every CLI user pays interpreter
start, import and cold allocation on every run.  Children alternate between
``FUTOPT_WORKERS=1`` and ``FUTOPT_WORKERS=2`` with BLAS pinned to one thread,
so no child uses more threads than the two cores the benchmark was sized for.
A run measures in batches of back-to-back children at one worker count,
alternating worker counts until ``--seconds`` would be exceeded, and
reports the median over batches of each batch's mean.  After each batch a
few set-up-only children run; ``setup_s`` is the median over every child.

``--seed`` is added to each config's ``mc.seed`` and handed to the CLI as
``--seed``; 0 reproduces the shipped configs.  Seed 9001 is held out: use it
only to confirm a claim, never while tuning a change.

Every sample is checked: the CLI must exit 0, print no ``[FAIL]`` line, write
exactly the expected artifacts, and produce the same artifact digest (the
manifest minus ``created_at``) as every other sample of the run, at either
worker count.  A sample that breaks any of these counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` pairs untraced
and traced 1-worker samples, adds one traced 2-worker sample, and prints the
per-layer metrics of ``tracer.py``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXACT, METRIC_UNITS  # noqa: E402


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: str
    artifacts: frozenset[str]


# Why each workload exists, its size and the layers it should move are in
# BENCHMARK.json and README.md next to this file.
WORKLOADS = {
    "backtest_daily": Workload(
        "backtest", "configs/daily_backtest.yaml",
        frozenset({"ledger_0000.csv", "positions_0000.csv", "summary.json", "manifest.json"}),
    ),
    "probe_known_drift": Workload(
        "optimality-probe", "configs/known_drift_probe.yaml",
        frozenset({"optimality_probe.csv", "probe_summary.json", "manifest.json"}),
    ),
    "measure_two_asset": Workload(
        "verify-measure", "configs/two_asset_measure.yaml",
        frozenset({"measure_report.csv", "manifest.json"}),
    ),
    "duality_daily": Workload(
        "duality-report", "configs/daily_backtest.yaml",
        frozenset({"duality.json", "manifest.json"}),
    ),
}

#: End-to-end metrics in the result line.  On the shared two-core host the
#: benchmark was sized on, interpreter speed drifts by up to a quarter over
#: minutes, so raw wall times (printed as wall_s, wall_s_w2) do not repeat
#: from run to run; wall_rel divides each batch's mean by the time of the
#: reference runs just before and after it, which drift with them.
END_TO_END = {
    "setup_s": "s",
    "wall_rel": "x-ref",
    "wall_rel_w2": "x-ref",
    "peak_rss_mb": "MB",
    "peak_rss_mb_w2": "MB",
}
PRINTED_UNITS = {**END_TO_END, "wall_s": "s", "wall_s_w2": "s", "reference_s": "s"}
#: Metrics taken from the traced 2-worker sample: the pool only shows there.
FROM_W2 = ("montecarlo.run_chunked_s", "montecarlo.workers", "montecarlo.chunk_wait_s",
           "montecarlo.busy_frac", "montecarlo.merge_s")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: A timing sample is the mean over back-to-back calls lasting at least this
#: long.  The host's speed also swings over seconds, so a median over single
#: short calls flips between fast and slow stretches; a median over such
#: batch means moves less.  A call longer than this fills a batch alone.
BATCH_S = 4.0
#: Set-up-only children started after every batch.  Set-up is short and
#: drifts with the host, so setup_s is a median over many single samples
#: spread through the run, not over the few batches.
SETUP_CHILDREN = 2
#: Reference runs before the first batch and after every batch.
REFERENCE_RUNS = 2
#: A run must end within 180 s; children are killed at this budget.
RUN_LIMIT_S = 170.0


class Runner:
    """Starts children for one workload and keeps every sample they report."""

    def __init__(self, root: Path, name: str, seed: int, deadline: float):
        self.root, self.name, self.seed, self.deadline = root, name, seed, deadline
        self.workload = WORKLOADS[name]
        self.work = root / ".perfbench_out"
        self.samples: list[dict] = []     # experiment samples, in run order
        self._n = 0

    def _env(self, workers: int) -> dict:
        env = dict(os.environ)
        env.update({var: "1" for var in BLAS_THREAD_VARS})
        env["FUTOPT_WORKERS"] = str(workers)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        return env

    def child(self, workers: int, experiment: bool = True, trace: bool = False) -> dict:
        self._n += 1
        out = self.work / f"{os.getpid()}-{self._n}"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--config", self.workload.config, "--seed-offset", str(self.seed),
               "--trace", str(int(trace))]
        if experiment:
            cmd += ["--experiment", self.workload.experiment, "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--t0", repr(start)], cwd=self.root, env=self._env(workers),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        finally:
            shutil.rmtree(out, ignore_errors=True)
            with contextlib.suppress(OSError):   # still holds other runs' output
                self.work.rmdir()
        sample = {"workers": workers, "trace": trace, "elapsed_s": time.perf_counter() - start}
        try:
            sample.update(json.loads(stdout.splitlines()[-1]))
        except (IndexError, ValueError):
            sample["problem"] = f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"
        if proc.returncode != 0 and "problem" not in sample:
            sample["problem"] = f"child exited {proc.returncode}"
        if experiment:
            self.samples.append(sample)
        elif "problem" in sample:
            raise SystemExit(f"{self.name}: set-up failed: {sample['problem']}")
        return sample

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def last_elapsed(self, workers: int, trace: bool = False) -> float:
        for s in reversed(self.samples):
            if s["workers"] == workers and s["trace"] == trace:
                return s["elapsed_s"]
        return 0.0

    def reference_digest(self) -> str | None:
        """The artifact digest every sample must match: the first clean one's."""
        return next((s["digest"] for s in self.samples if s.get("exit") == 0), None)

    def problems(self) -> list[list[str]]:
        """Reasons each experiment sample failed; an empty list means it passed."""
        reference = self.reference_digest()
        counts = next((s["layers"] for s in self.samples if "layers" in s and s["workers"] == 1), None)
        found = []
        for s in self.samples:
            why = [s["problem"]] if "problem" in s else []
            if "error" in s:
                why.append(s["error"].strip().splitlines()[-1])
            if s.get("exit") != 0 and "problem" not in s:
                why.append(f"CLI exit status {s.get('exit')}")
            why += [line for line in s.get("lines", ()) if line.startswith("[FAIL]")]
            if "artifacts" in s and set(s["artifacts"]) != self.workload.artifacts:
                why.append(f"artifacts {sorted(s['artifacts'])}")
            if s.get("digest") != reference and "digest" in s:
                why.append(f"artifact digest {s['digest'][:16]} != {reference and reference[:16]}")
            if counts is not None and "layers" in s:
                why += [f"{k} = {s['layers'][k]} != {counts[k]}" for k in sorted(EXACT)
                        if s["layers"][k] != counts[k]]
            found.append(why)
        return found


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values) -> str:
    if len(values) < 2:
        return "no quartiles below 2 samples"
    q = statistics.quantiles(values, n=4)
    return f"q1 {q[0]:.6g}, q3 {q[2]:.6g}"


#: A fixed array for the numpy half of the reference work (20 MB).
REFERENCE_ARRAY = np.linspace(-3.0, 3.0, 1000 * 2520).reshape(1000, 2520)


def reference_s() -> float:
    """Seconds this host takes for a fixed piece of Python and numpy work.

    The CLI's wall time is interpreter time in per-step loops plus numpy
    passes over path arrays, and the host's speed for both drifts; this
    reference drifts with it.  Nothing in futopt can move it.
    """
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(100_000):
        table[str(i)] = i * i % 7
    sum(v for v in table.values() if v)
    a = REFERENCE_ARRAY
    for _ in range(3):
        a = np.exp(-np.abs(a)) + 0.5 * a
    float(a.sum())
    return time.perf_counter() - start


def measure_end_to_end(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    # Each batch: its children and the mean reference time around it.
    batches: dict[int, list[tuple[list[dict], float]]] = {1: [], 2: []}
    setups: list[dict] = []      # set-up-only children
    reference_s()                # the first call pays for page faults
    reference = [[reference_s() for _ in range(REFERENCE_RUNS)]]
    while True:
        workers = 1 if len(batches[1]) <= len(batches[2]) else 2
        expected = sum(s["elapsed_s"] for s in batches[workers][-1][0]) if batches[workers] else 0.0
        expected += sum(s["elapsed_s"] for s in setups[-SETUP_CHILDREN:]) + sum(reference[-1])
        if batches[1] and batches[2] and time.perf_counter() - start + expected > seconds:
            break
        if expected > r.time_left():
            break
        batch, batch_start = [], time.perf_counter()
        while not batch or (time.perf_counter() - batch_start < BATCH_S and r.time_left() > 0):
            batch.append(r.child(workers))
        reference.append([reference_s() for _ in range(REFERENCE_RUNS)])
        batches[workers].append((batch, statistics.fmean(reference[-2] + reference[-1])))
        setups += [r.child(workers, experiment=False) for _ in range(SETUP_CHILDREN)]

    def per_batch(workers, relative=False):
        values = []
        for batch, ref in batches[workers]:
            walls = [s["wall_s"] for s in batch if "wall_s" in s]
            if walls:
                values.append(statistics.fmean(walls) / (ref if relative else 1.0))
        return values

    def per_call(key, workers, scale=1.0):
        return [s[key] * scale for b, _ in batches[workers] for s in b if key in s]

    setup = [s["setup_s"] for s in setups] + per_call("setup_s", 1) + per_call("setup_s", 2)
    series = {
        "setup_s": setup,
        "wall_s": per_batch(1),
        "wall_s_w2": per_batch(2),
        "reference_s": [t for group in reference for t in group],
        "wall_rel": per_batch(1, relative=True),
        "wall_rel_w2": per_batch(2, relative=True),
        "peak_rss_mb": per_call("maxrss_kb", 1, 1 / 1024),
        "peak_rss_mb_w2": per_call("maxrss_kb", 2, 1 / 1024),
    }
    printed = {name: _median(values) for name, values in series.items()}
    calls = {w: sum(len(b) for b, _ in batches[w]) for w in (1, 2)}
    kinds = {
        "setup_s": f"median of {len(setup)} children, {len(setups)} of them set-up only",
        "wall_s": f"median of {len(series['wall_s'])} batch means, {calls[1]} calls",
        "wall_s_w2": f"median of {len(series['wall_s_w2'])} batch means, {calls[2]} calls",
        "reference_s": f"median of {len(series['reference_s'])} reference runs",
        "wall_rel": "median over batches of wall_s / reference_s either side",
        "wall_rel_w2": "median over batches of wall_s_w2 / reference_s either side",
        "peak_rss_mb": f"median of {calls[1]} calls",
        "peak_rss_mb_w2": f"median of {calls[2]} calls",
    }
    lines = []
    for name, kind in kinds.items():
        lines.append(f"{name:16s} {printed[name]!s:>22} {PRINTED_UNITS[name]:5s} "
                     f"{kind}; {_quartiles(series[name])}")
    lines.append("no tail percentile: no run has 10 samples beyond one")
    return {name: printed[name] for name in END_TO_END}, lines


def measure_layers(r: Runner, seconds: float) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    while True:
        pair = r.last_elapsed(1) + r.last_elapsed(1, trace=True)
        reserve = r.last_elapsed(2, trace=True) or r.last_elapsed(1, trace=True)
        if pair and time.perf_counter() - start + pair + reserve > seconds:
            break
        if pair + reserve > r.time_left():
            break
        r.child(1)
        r.child(1, trace=True)
    r.child(2, trace=True)
    traced = [s["layers"] for s in r.samples if "layers" in s and s["workers"] == 1]
    traced_w2 = [s["layers"] for s in r.samples if "layers" in s and s["workers"] == 2]
    if not traced or not traced_w2:
        return {}, []
    # Counts agree between samples (problems() checks it); times are medians.
    metrics = {name: traced[0][name] if name in EXACT else _median([t[name] for t in traced])
               for name in METRIC_UNITS}
    metrics.update({name: traced_w2[0][name] for name in FROM_W2})
    walls = {tr: [s["wall_s"] for s in r.samples if s["workers"] == 1 and s["trace"] == tr and "wall_s" in s]
             for tr in (False, True)}
    metrics["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    lines = [f"traced 1-worker samples: {len(traced)}; montecarlo.* except chunks from the 2-worker sample"]
    return metrics, lines


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    r = Runner(root, name, seed, time.perf_counter() + RUN_LIMIT_S)
    r.child(1, experiment=False)   # warm-up: byte-compile futopt, fill the page cache
    metrics, lines = (measure_layers if trace else measure_end_to_end)(r, seconds)
    problems = r.problems()
    failed = sum(1 for why in problems if why)
    env = next((s["env"] for s in r.samples if "env" in s), {})
    digest = r.reference_digest()
    print(f"== {name}: {WORKLOADS[name].experiment} --config {WORKLOADS[name].config} "
          f"(seed offset {seed}, trace {int(trace)})")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"artifact digest: {digest}")
    for line in lines:
        print(line)
    print(f"error_rate       {failed}/{len(problems)} experiment runs failed")
    for s, why in zip(r.samples, problems):
        for reason in why:
            print(f"FAILED sample (workers {s['workers']}, trace {int(s['trace'])}): {reason}")
    units = {**END_TO_END, **METRIC_UNITS, "trace.overhead_s": "s"}
    return {
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if v is not None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="added to each config's mc.seed")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measuring time per workload (run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in ["src/futopt/__init__.py", *{WORKLOADS[n].config for n in names}]
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the root of a futopt checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names}
    expected = METRIC_UNITS.keys() | {"trace.overhead_s"} if args.trace else END_TO_END.keys()
    if any(set(res["metrics"]) != set(expected) for res in results.values()):
        print("error: no metrics: every sample failed", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
