"""Tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest perfbench/test_perfbench.py -q

The count test runs every workload traced three times at full size, so it
takes a few minutes.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from compare import digest_outcome, verdict
from run import RUN_LIMIT_S, WORKLOADS, Runner
from tracer import EXACT, _union

ROOT = Path(__file__).resolve().parent.parent


#: Counts that must be above 0 on each workload: the layers it is documented
#: to enter.  A tracer that wraps nothing would report 0 for all of them.
ENTERED = {
    "backtest_daily": ("market.simulate_calls", "filtering.filter_calls", "strategies.weights_calls",
                       "trading.calls", "wealth.backtest_calls", "measure.calls", "montecarlo.chunks"),
    "probe_known_drift": ("market.simulate_calls", "filtering.filter_calls", "strategies.weights_calls",
                          "trading.calls", "wealth.backtest_calls", "montecarlo.chunks"),
    "measure_two_asset": ("market.simulate_calls", "filtering.filter_calls", "measure.calls",
                          "montecarlo.chunks"),
    "duality_daily": ("market.simulate_calls", "utility.oracle_evals"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_exact_counts_repeat_across_runs_and_worker_counts(name):
    r = Runner(ROOT, name, seed=0, deadline=time.perf_counter() + RUN_LIMIT_S)
    samples = [r.child(1, trace=True), r.child(1, trace=True), r.child(2, trace=True)]
    assert r.problems() == [[], [], []]
    counts = [{k: s["layers"][k] for k in EXACT} for s in samples]
    assert counts[0] == counts[1] == counts[2]
    assert {k: counts[0][k] for k in ENTERED[name] if counts[0][k] <= 0} == {}
    assert counts[0]["experiments.artifact_bytes"] > 0


def test_self_time_subtracts_overlapping_children_once():
    assert _union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _union([]) == 0.0


LOWER = {"unit": "s", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize("parent, change, spec, expected", [
    # wins 10 of 10 and the medians differ by more than the parent's spread
    ([10.0 + 0.01 * i for i in range(10)], [9.0 + 0.01 * i for i in range(10)], LOWER, "improved"),
    # ties count for neither side, so 9 wins and 1 tie is still 9 of 10
    ([10.0] * 10, [10.0] + [9.0] * 9, LOWER, "improved"),
    ([10.0 + 0.01 * i for i in range(10)], [10.005 + 0.01 * i for i in range(10)], LOWER, "unchanged"),
    ([10.0 + 0.01 * i for i in range(10)], [12.0 + 0.01 * i for i in range(10)], LOWER, "worse"),
    # the parent's own spread is wider than the bound
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, LOWER, "unresolved"),
    # fewer than 10 pairs never show a gain
    ([10.0, 10.1], [9.0, 9.1], LOWER, "unchanged"),
    ([181.7] * 10, [181.4] * 10, {"unit": "MB", "better": "lower", "bound": 0.05}, "improved"),
    ([0.0] * 3, [0.0] * 3, {"unit": "s", "better": "lower"}, "unchanged"),
    ([3, 3, 3], [2, 2, 2], {"unit": "count", "better": "lower"}, "improved"),
    ([1265, 1282, 1270], [1265, 1282, 1270], {"unit": "B", "better": "lower"}, "unchanged"),
    ([3, 3, 3], [3, 3, 4], {"unit": "count", "better": "lower"}, "unresolved"),
    ([1.0, 1.1, 1.2], [1.05, 1.15, 1.1], {"unit": "s", "better": "lower"}, "unresolved"),
])
def test_verdict(parent, change, spec, expected):
    assert verdict(parent, change, spec)[0] == expected


def test_digest_outcome_names_the_pairs_that_differ():
    parent = [{"pair": i, "digest": d} for i, d in enumerate(["a", "b", "c"])]
    assert digest_outcome(parent, parent) == "same"
    change = [{"pair": i, "digest": d} for i, d in enumerate(["a", "x", ""])]
    assert digest_outcome(parent, change) == "differ in pairs [1, 2]"
    assert digest_outcome([{"pair": 0, "digest": ""}], [{"pair": 0, "digest": ""}]) == "differ in pairs [0]"
