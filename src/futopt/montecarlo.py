"""Deterministic chunked Monte Carlo with mergeable accumulators.

Work is split into fixed-size chunks of paths.  Each chunk derives its own
generator from a spawned seed sequence keyed by the chunk index, and chunk
results merge in index order through a numerically stable parallel-moments
update (Chan, Golub & LeVeque 1979) plus an exact total, minimum and
maximum.  The chunk layout depends only on (n_paths, chunk_size), never on
how many workers happened to execute the chunks, so the aggregate is
bit-for-bit identical at any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "RunningMoments",
    "run_chunked",
    "chunk_layout",
    "resolve_workers",
    "DEFAULT_CHUNK",
    "WORKERS_ENV_VAR",
]

DEFAULT_CHUNK = 8192
WORKERS_ENV_VAR = "FUTOPT_WORKERS"


@dataclass
class RunningMoments:
    """Streaming mean and second central moment, mergeable across chunks.

    total, lo and hi are the plain sum, minimum and maximum; they merge
    exactly, and so does total for integer counts below 2**53.
    """

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    total: float = 0.0
    lo: float = np.inf
    hi: float = -np.inf

    def update(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            return
        mean = samples.mean()
        self.merge(RunningMoments(
            n=samples.size, mean=float(mean), m2=float(((samples - mean) ** 2).sum()),
            total=float(samples.sum()), lo=float(samples.min()), hi=float(samples.max()),
        ))

    def merge(self, other: "RunningMoments") -> None:
        if other.n == 0:
            return
        self.total += other.total
        self.lo, self.hi = min(self.lo, other.lo), max(self.hi, other.hi)
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            return
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean += delta * other.n / n
        self.m2 += other.m2 + delta * delta * self.n * other.n / n
        self.n = n

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.variance / self.n)) if self.n > 1 else 0.0

    def z_score(self, target: float) -> float:
        """(mean - target) / stderr, never finite on a run it cannot judge:
        NaN for a non-finite mean or stderr, and +-inf for a zero stderr
        with the mean off target (z_cause names which)."""
        diff, se = self.mean - target, self.stderr
        if not (np.isfinite(self.mean) and np.isfinite(se)):
            return float("nan")
        if se > 0:
            return diff / se
        return 0.0 if diff == 0 else float(np.copysign(np.inf, diff))

    def z_cause(self, target: float) -> str:
        """Why z_score(target) cannot judge the run, or "" when it can."""
        if not np.isfinite(self.mean):
            return "non-finite mean"
        if not np.isfinite(self.stderr):
            return "non-finite stderr"
        if self.stderr == 0 and self.mean != target:
            return "zero stderr with the mean off target"
        return ""


def resolve_workers(config_value: int | None = None) -> int:
    """Worker count: environment variable first, then config, then 1.  0
    means unset; a negative count is a ConfigError naming its source."""
    env = os.environ.get(WORKERS_ENV_VAR)
    where, value = (WORKERS_ENV_VAR, env) if env else ("mc.workers", config_value or 0)
    try:
        n = int(value)
    except ValueError:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from None
    if n < 0:
        raise ConfigError(f"{where} must be nonnegative, got {n}")
    return max(1, n)


def chunk_layout(n_total: int, chunk_size: int = DEFAULT_CHUNK) -> list[tuple[int, int]]:
    """Fixed (start, size) pairs covering n_total paths."""
    layout = []
    start = 0
    while start < n_total:
        size = min(chunk_size, n_total - start)
        layout.append((start, size))
        start += size
    return layout


def run_chunked(
    n_paths: int,
    seed,
    chunk_fn,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int | None = None,
) -> tuple[dict[str, RunningMoments], list]:
    """Evaluate chunk_fn over fixed chunks and merge named sample streams.

    chunk_fn(seed_seq, n_in_chunk) returns (samples, out): samples maps
    statistic names to per-path sample arrays, and out is everything else
    the chunk produced, so a chunk writes nothing outside itself.  Chunk i
    receives the i-th child spawned from the root seed sequence.  Chunks may
    run on a thread pool; merging always happens serially in chunk order.
    Returns the merged moments and every chunk's out, in chunk order.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    layout = chunk_layout(int(n_paths), chunk_size)
    children = root.spawn(len(layout))
    n_workers = resolve_workers(workers)

    def job(idx: int):
        return chunk_fn(children[idx], layout[idx][1])

    if n_workers > 1 and len(layout) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(job, range(len(layout))))
    else:
        results = [job(i) for i in range(len(layout))]

    merged: dict[str, RunningMoments] = {}
    for samples, _ in results:               # fixed chunk order
        for key, values in samples.items():
            merged.setdefault(key, RunningMoments()).update(values)
    return merged, [out for _, out in results]
