"""Paired comparison of two futopt checkouts, parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--workload NAME ...]
        [--pairs 10] [--seed 0] [--seconds 60] [--trace 0|1]

Both sides are measured with this directory's run.py, so the benchmark code
and settings are identical; only the checkout it runs in differs.  Pair i
uses seed ``--seed + i`` on both sides, and the side that runs first
alternates from pair to pair.  Every run is printed as it finishes.

Each metric on each workload gets its own row: both sides' median and
quartiles, the change's win fraction (ties count for neither side) and a
verdict:

* ``improved``: over at least 10 pairs, the change wins at least 9 in 10 and
  the medians differ by more than the parent's own quartile spread;
* ``worse``: for an end-to-end metric, the change's median is worse than the
  parent's by more than the bound in BENCHMARK.json; for a per-layer time,
  which has no bound, the parent wins 9 in 10 pairs by more than its spread;
* ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run, or a per-layer time moved by
  neither rule;
* ``unchanged``: otherwise, or when every pair reads the same.

Per-layer counts (every unit but ``s``) are exact for a seed, so they are
compared pair by pair: ``improved`` or ``worse`` only when every pair moved
that way.  A change with more failed operations than the parent cannot be
``improved`` on that workload.

Each workload also gets an ``artifact digest`` row: ``same`` when every pair
wrote identical artifact bytes on both sides, else the pairs that differ.  A
change meant only to be faster must leave it ``same``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
SIDES = ("parent", "change")
#: A gain is claimed only over at least this many pairs.
MIN_PAIRS = 10


DIGEST_PREFIX = "artifact digest: "


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """run.py's result line and the artifact digest it printed before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    digest = next((line[len(DIGEST_PREFIX):] for line in lines if line.startswith(DIGEST_PREFIX)), "")
    return result, "" if digest == "None" else digest


def collect(args) -> list[dict]:
    runs = []
    for workload in args.workload:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = Path(args.parent if side == "parent" else args.change).resolve()
                result, digest = run_once(checkout, workload, args.seed + i, args.seconds, args.trace)
                runs.append({"workload": workload, "pair": i, "side": side,
                             "seed": args.seed + i, "result": result, "digest": digest})
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"run {workload} pair {i} {side}: failed {result['failed']}/"
                      f"{result['attempted']} digest {digest[:16]} {json.dumps(values)}", flush=True)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], spec: dict) -> tuple[str, float]:
    """Verdict for one metric on one workload, and the change's win fraction.

    parent[i] and change[i] are pair i, run on the same seed.
    """
    sign = 1.0 if spec["better"] == "lower" else -1.0
    gains = [(p - c) * sign for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains) / len(gains)
    losses = sum(g < 0 for g in gains) / len(gains)
    if parent == change:
        return "unchanged", wins
    if "bound" not in spec and spec["unit"] != "s":
        # A per-layer count: exact on each seed, so compare it pair by pair.
        if all(g > 0 for g in gains):
            return "improved", wins
        if all(g < 0 for g in gains):
            return "worse", wins
        return "unresolved", wins

    p1, p_med, p3 = quartiles(parent)
    gain = (p_med - statistics.median(change)) * sign
    enough = len(gains) >= MIN_PAIRS
    if enough and wins >= 0.9 and gain > p3 - p1:
        return "improved", wins
    bound = spec.get("bound")
    if bound is None:
        if enough and losses >= 0.9 and -gain > p3 - p1:
            return "worse", wins
        return "unresolved", wins
    every_run_better = all((p - c) * sign > 0 for p in parent for c in change)
    if p3 - p1 > bound * abs(p_med) and not every_run_better:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "worse", wins
    return "unchanged", wins


def report(runs: list[dict], spec: dict[str, dict]) -> None:
    print(f"{'workload':18s} {'metric':32s} {'unit':10s} {'parent median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'wins':>5s}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side),
                                key=lambda r: r["pair"]) for side in SIDES}
        failed = {side: sum(r["result"]["failed"] for r in by_side[side]) for side in SIDES}
        more_failures = failed["change"] > failed["parent"]
        names = by_side["parent"][0]["result"]["metrics"]
        for name in names:
            values = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]]
                      for side in SIDES}
            outcome, wins = verdict(values["parent"], values["change"], spec[name])
            if more_failures and outcome == "improved":
                outcome = "unresolved"
            cells = []
            for side in SIDES:
                q1, med, q3 = quartiles(values[side])
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:18s} {name:32s} {spec[name]['unit']:10s} {cells[0]:36s} "
                  f"{cells[1]:36s} {wins:5.2f}  {outcome}")
        print(f"{workload:18s} {'failed operations':32s} {'count':10s} {failed['parent']:<36d} "
              f"{failed['change']:<36d} {'':5s}  {'worse' if more_failures else 'unchanged'}")
        print(f"{workload:18s} {'artifact digest':32s} {'sha256':10s} "
              f"{digest_outcome(by_side['parent'], by_side['change'])}")


def digest_outcome(parent: list[dict], change: list[dict]) -> str:
    """``same`` when each pair's two runs wrote identical artifact bytes."""
    differ = [p["pair"] for p, c in zip(parent, change) if not p["digest"] or p["digest"] != c["digest"]]
    return "same" if not differ else f"differ in pairs {differ}"


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent checkout")
    parser.add_argument("change", help="change checkout")
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS),
                        help="default: every workload run.py defines, gated or not")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("give at least 2 pairs")
    report(collect(args), {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
