"""Outside-in span tracer for futopt's public functions.

``Tracer.install()`` wraps every public function that a ``futopt`` module
defines (the names in its ``__all__``), plus the ``weights`` method of every
strategy class, and rebinds each wrapped name in every loaded ``futopt``
module that holds it, because ``experiments``, ``wealth``, ``strategies`` and
``cli`` import by name.  File writes are seen by giving the modules that
write artifacts their own ``open``.  Nothing under ``src/futopt`` changes.

Each span records a name, its layer (the module), start, end and the id of
the span that caused it; one traced process is one request.  A thread-local
stack tracks parents; chunk jobs that ``run_chunked`` hands to pool threads
take the enclosing ``run_chunked`` span as their parent.  Spans stay in
memory; ``metrics()`` reduces them once the run has ended.

Counter bookkeeping that costs real time (hashing filter inputs) runs in its
own ``trace`` span, so it never counts as a layer's own time.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "config", "market", "filtering", "strategies", "trading", "wealth",
    "measure", "utility", "montecarlo", "experiments", "cli",
)
#: Modules whose artifact writes are timed through a substituted ``open``.
WRITERS = ("experiments", "wealth", "trading", "market", "filtering")

TRADING_SELF = frozenset({
    "contract_price", "position_from_weights", "cost_term", "approx_cost_term",
    "payoff_transform", "log_optimal_weights",
})
ORACLES = frozenset({"conjugate_grid_sup", "double_conjugate_grid"})
FILTERS = frozenset({"run_filter_batch", "run_filter", "filter_step"})

#: Per-layer metric names and units.  Counts repeat exactly from run to run;
#: "B-computed" marks byte counts derived from array shapes, not measured.
METRIC_UNITS = {
    "config.load_s": "s",
    "market.simulate_s": "s",
    "market.simulate_calls": "count",
    "market.unique_batch_ratio": "ratio",
    "market.computed_bytes": "B-computed",
    "filtering.filter_s": "s",
    "filtering.filter_calls": "count",
    "filtering.kalman_steps": "count",
    "filtering.unique_input_ratio": "ratio",
    "strategies.weights_s": "s",
    "strategies.weights_calls": "count",
    "trading.self_s": "s",
    "trading.calls": "count",
    "wealth.backtest_s": "s",
    "wealth.self_s": "s",
    "wealth.backtest_calls": "count",
    "wealth.step_iters": "count",
    "wealth.events": "count",
    "wealth.hist_bytes": "B-computed",
    "measure.self_s": "s",
    "measure.calls": "count",
    "measure.theta_capped": "count",
    "utility.oracle_s": "s",
    "utility.oracle_evals": "count",
    "utility.closed_forms_s": "s",
    "montecarlo.run_chunked_s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.workers": "count",
    "montecarlo.chunk_wait_s": "s",
    "montecarlo.busy_frac": "ratio",
    "montecarlo.merge_s": "s",
    "experiments.outside_chunked_s": "s",
    "experiments.write_s": "s",
    "experiments.artifact_bytes": "B",
}
#: Metrics that depend on the worker count by design; all other non-time
#: metrics must repeat exactly across runs and worker counts.
WORKER_DEPENDENT = frozenset({"montecarlo.workers", "montecarlo.busy_frac"})
EXACT = frozenset(
    name for name, unit in METRIC_UNITS.items() if unit != "s" and name not in WORKER_DEPENDENT
)


def _seed_key(seed):
    entropy = getattr(seed, "entropy", None)
    if entropy is None:
        return repr(seed)
    return (entropy, tuple(seed.spawn_key), seed.pool_size)


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays if a is not None)


def _digest(array) -> str:
    import numpy as np

    arr = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((arr.shape, arr.dtype.str)).encode())
    h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


class _TimedFile:
    """Write-mode file whose open-to-close interval is recorded as a span."""

    def __init__(self, tracer, fh, parent):
        self._tracer, self._fh, self._parent = tracer, fh, parent
        self._start = time.perf_counter()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._tracer._record(self._parent, "io", "write", self._start, time.perf_counter())


class Tracer:
    """Collects spans and exact counters for one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, layer, name, start, end)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counts: dict[str, int] = defaultdict(int)
        self._keys: dict[str, set] = defaultdict(set)
        self._workers: list[int] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, parent, layer, name, start, end) -> None:
        with self._lock:
            self.spans.append((next(self._ids), parent, layer, name, start, end))

    def _call(self, layer, name, func, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, layer, name, start, end))

    def _count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counts[name] += value

    #: Wrapped functions whose inputs or results feed exact counters.
    OBSERVED = frozenset({"simulate_batch", "run_filter_batch", "run_backtest", "build_measure_state"})

    def _observe(self, name, result, args, kwargs):
        """Exact counters taken from a wrapped call's inputs and result."""
        if name == "simulate_batch":
            seed, n_paths = _bound(args, kwargs, 1, "seed"), _bound(args, kwargs, 2, "n_paths")
            with self._lock:
                self._keys["market"].add((_seed_key(seed), int(n_paths)))
            self._count("market.computed_bytes", _nbytes(
                result.t_grid, result.F, result.R, result.beta, result.dW, result.dW2,
                result.guard_events,
            ))
        elif name == "run_filter_batch":
            delta_r = _bound(args, kwargs, 0, "delta_R")
            self._count("filtering.kalman_steps", int(result.d_nu.shape[1]))
            start = time.perf_counter()
            key = _digest(delta_r)
            with self._lock:
                self._keys["filtering"].add(key)
            parent = self._stack()[-1] if self._stack() else None
            self._record(parent, "trace", "digest", start, time.perf_counter())
        elif name == "run_backtest":
            book = result.book
            self._count("wealth.step_iters", int(result.X.shape[-1]) - 1)
            self._count("wealth.events", len(result.events))
            self._count("wealth.hist_bytes", _nbytes(
                result.X, book.C, book.pi, book.P, book.trade, book.c_tilde,
                book.cash_cost, book.clipped,
            ))
        elif name == "build_measure_state":
            self._count("measure.theta_capped", int(result.n_capped))

    # -- installation -------------------------------------------------------

    def _wrap(self, layer, name, func):
        observe = name in self.OBSERVED

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = self._call(layer, name, func, args, kwargs)
            if observe:
                self._observe(name, result, args, kwargs)
            return result

        return wrapper

    def _wrap_run_chunked(self, func):
        from futopt.montecarlo import DEFAULT_CHUNK, resolve_workers

        @functools.wraps(func)
        def run_chunked(n_paths, seed, chunk_fn, chunk_size=DEFAULT_CHUNK, workers=None):
            n_workers = resolve_workers(workers)
            stack = self._stack()
            outer = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            n_chunks = [0]

            def chunk(seed_seq, n_in_chunk):
                with self._lock:
                    n_chunks[0] += 1
                # On a pool thread the stack is empty, so name the parent.
                return self._call("montecarlo", "chunk", chunk_fn, (seed_seq, n_in_chunk), {}, parent=sid)

            start = time.perf_counter()
            try:
                return func(n_paths, seed, chunk, chunk_size, workers)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, outer, "montecarlo", "run_chunked", start, end))
                    self._workers.append(n_workers if n_workers > 1 and n_chunks[0] > 1 else 1)

        return run_chunked

    def _open_for(self, real_open):
        def traced_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if not any(flag in mode for flag in "wax"):
                return fh
            stack = self._stack()
            return _TimedFile(self, fh, stack[-1] if stack else None)

        return traced_open

    def install(self) -> None:
        """Wrap futopt's public functions in every module that names them."""
        import futopt  # noqa: F401  (loads every submodule)

        modules = [importlib.import_module(f"futopt.{layer}") for layer in LAYERS]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if name == "run_chunked":
                        replaced[obj] = self._wrap_run_chunked(obj)
                    else:
                        replaced[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and "weights" in vars(obj):
                    setattr(obj, "weights", self._wrap(layer, "weights", vars(obj)["weights"]))
        for mod in _loaded_futopt_modules():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(mod, attr, replaced[value])
        for layer in WRITERS:
            setattr(importlib.import_module(f"futopt.{layer}"), "open", self._open_for(builtins.open))

    # -- reduction ----------------------------------------------------------

    def metrics(self, out_dir: Path | None = None) -> dict[str, float]:
        """Per-layer metrics from the spans and counters of a finished run."""
        spans = sorted(self.spans, key=lambda s: s[5])   # children end first
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        trace_under = defaultdict(float)   # bookkeeping time inside each span
        for sid, parent, layer, name, start, end in spans:
            if parent is not None:
                children[parent].append((start, end))
                trace_under[parent] += trace_under[sid] + (end - start if layer == "trace" else 0.0)

        def self_time(s) -> float:
            return (s[5] - s[4]) - _union(children[s[0]])

        def inclusive(names, layer=None) -> tuple[float, int]:
            total, calls = 0.0, 0
            for s in spans:
                if s[3] in names and (layer is None or s[2] == layer) and not _has_ancestor(s, by_id, names):
                    total += (s[5] - s[4]) - trace_under[s[0]]
                    calls += 1
            return total, calls

        def layer_self(layer, names=None) -> tuple[float, int]:
            chosen = [s for s in spans if s[2] == layer and (names is None or s[3] in names)]
            return sum(self_time(s) for s in chosen), len(chosen)

        m: dict[str, float] = {}
        m["config.load_s"] = inclusive({"load_config"})[0]

        m["market.simulate_s"], calls = inclusive({"simulate_batch"})
        m["market.simulate_calls"] = calls
        m["market.unique_batch_ratio"] = len(self._keys["market"]) / calls if calls else 0.0
        m["market.computed_bytes"] = self._counts["market.computed_bytes"]

        m["filtering.filter_s"] = inclusive(FILTERS)[0]
        calls = inclusive({"run_filter_batch"})[1]
        m["filtering.filter_calls"] = calls
        m["filtering.kalman_steps"] = self._counts["filtering.kalman_steps"]
        m["filtering.unique_input_ratio"] = len(self._keys["filtering"]) / calls if calls else 0.0

        m["strategies.weights_s"], m["strategies.weights_calls"] = inclusive({"weights"}, "strategies")
        m["trading.self_s"] = layer_self("trading", TRADING_SELF)[0]
        m["trading.calls"] = layer_self("trading")[1]

        m["wealth.backtest_s"], m["wealth.backtest_calls"] = inclusive({"run_backtest"})
        m["wealth.self_s"] = layer_self("wealth")[0]
        for name in ("step_iters", "events", "hist_bytes"):
            m[f"wealth.{name}"] = self._counts[f"wealth.{name}"]

        m["measure.self_s"], m["measure.calls"] = layer_self("measure")
        m["measure.theta_capped"] = self._counts["measure.theta_capped"]

        m["utility.oracle_s"] = inclusive(ORACLES)[0]
        m["utility.oracle_evals"] = layer_self("utility", ORACLES)[1]
        m["utility.closed_forms_s"] = inclusive({"log_optimal_closed_forms"})[0]

        # Both lists are in end order: a run_chunked span and its worker
        # count are recorded together.
        chunked = [s for s in spans if s[3] == "run_chunked"]
        chunk_spans = defaultdict(list)
        for s in spans:
            if s[3] == "chunk":
                chunk_spans[s[1]].append(s)
        busy = wait = merge = span_total = capacity = 0.0
        for s, workers in zip(chunked, self._workers):
            own = chunk_spans[s[0]]
            busy += sum(c[5] - c[4] for c in own)
            wait += sum(c[4] - s[4] for c in own)
            merge += s[5] - max((c[5] for c in own), default=s[4])
            span_total += s[5] - s[4]
            capacity += workers * (s[5] - s[4])
        m["montecarlo.run_chunked_s"] = span_total
        m["montecarlo.chunks"] = sum(len(v) for v in chunk_spans.values())
        m["montecarlo.workers"] = max(self._workers, default=0)
        m["montecarlo.chunk_wait_s"] = wait
        m["montecarlo.busy_frac"] = busy / capacity if capacity else 0.0
        m["montecarlo.merge_s"] = merge

        experiment = inclusive({"run_experiment"})[0]
        m["experiments.outside_chunked_s"] = experiment - inclusive({"run_chunked"})[0]
        m["experiments.write_s"] = sum(s[5] - s[4] for s in spans if s[2] == "io")
        m["experiments.artifact_bytes"] = (
            sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file()) if out_dir else 0
        )
        return m


def _bound(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _has_ancestor(span, by_id, names) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[3] in names:
            return True
        parent = by_id.get(parent[1])
    return False


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _loaded_futopt_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "futopt" or name.startswith("futopt."))
    ]
