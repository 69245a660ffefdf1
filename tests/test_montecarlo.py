import numpy as np
import pytest

from futopt import ConfigError, RunningMoments, chunk_layout, resolve_workers, run_chunked
from futopt.montecarlo import WORKERS_ENV_VAR


def test_running_moments_match_direct_formulas():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000)
    m = RunningMoments()
    m.update(x)
    assert m.n == 10_000
    assert m.mean == pytest.approx(x.mean(), rel=1e-12)
    assert m.variance == pytest.approx(x.var(ddof=1), rel=1e-10)
    assert m.stderr == pytest.approx(x.std(ddof=1) / 100.0, rel=1e-10)


def test_moment_merge_is_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5000) * 3.0 + 1.0
    whole = RunningMoments()
    whole.update(x)
    pieces = RunningMoments()
    for part in np.array_split(x, 7):
        block = RunningMoments()
        block.update(part)
        pieces.merge(block)
    assert pieces.n == whole.n
    assert pieces.mean == pytest.approx(whole.mean, rel=1e-13)
    assert pieces.variance == pytest.approx(whole.variance, rel=1e-12)


def test_total_min_max_merge_exactly_over_uneven_chunks():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10_007) * 1e3
    counts = rng.integers(0, 2**40, 10_007).astype(float)   # integer sums stay below 2**53
    for data in (x, counts):
        merged = RunningMoments()
        for part in np.split(data, [1, 10, 4000, 4000, 9999]):
            merged.update(part)
        assert merged.n == data.size
        assert merged.lo == data.min() and merged.hi == data.max()
        if data is counts:
            assert merged.total == int(counts.astype(np.int64).sum())
        else:
            assert merged.total == pytest.approx(data.sum(), rel=1e-12)
    empty = RunningMoments()
    assert empty.total == 0.0 and empty.lo == np.inf and empty.hi == -np.inf


def test_z_score_sign_convention():
    m = RunningMoments()
    m.update(np.full(100, 2.0) + np.linspace(-0.1, 0.1, 100))
    assert m.z_score(2.0) == pytest.approx(0.0, abs=1e-10)
    assert m.z_score(1.0) > 0
    assert m.z_cause(1.0) == ""


def test_z_score_is_not_finite_on_a_run_it_cannot_judge():
    flat = RunningMoments()
    flat.update(np.zeros(10))
    assert flat.z_score(0.0) == 0.0 and flat.z_cause(0.0) == ""
    assert flat.z_score(1.0) == -np.inf and flat.z_score(-1.0) == np.inf
    assert flat.z_cause(1.0) == "zero stderr with the mean off target"
    nan = RunningMoments()
    nan.update(np.array([1.0, np.nan, 2.0]))
    assert np.isnan(nan.z_score(1.0)) and nan.z_cause(1.0) == "non-finite mean"
    wide = RunningMoments(n=2, mean=0.0, m2=np.inf)   # squares of +-1e200 overflow; their mean does not
    assert np.isnan(wide.z_score(0.0)) and wide.z_cause(0.0) == "non-finite stderr"


def test_chunk_layout_covers_range():
    layout = chunk_layout(20_001, 8192)
    assert layout[0] == (0, 8192)
    assert sum(size for _, size in layout) == 20_001
    starts = [s for s, _ in layout]
    assert starts == sorted(starts)
    assert chunk_layout(5, 8192) == [(0, 5)]


def test_resolve_workers_priority(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV_VAR, "5")
    assert resolve_workers(3) == 5
    monkeypatch.setenv(WORKERS_ENV_VAR, "2.0")          # as mc.workers: 2.0 is
    assert resolve_workers(3) == 2
    monkeypatch.setenv(WORKERS_ENV_VAR, "lots")
    with pytest.raises(ConfigError, match="FUTOPT_WORKERS must be an integer"):
        resolve_workers(None)
    monkeypatch.setenv(WORKERS_ENV_VAR, "-4")
    with pytest.raises(ConfigError, match="FUTOPT_WORKERS must be nonnegative, got -4"):
        resolve_workers(3)


def _noisy_chunk(seed_seq, n):
    rng = np.random.default_rng(seed_seq)
    draws = rng.standard_normal(n)
    return {"x": draws, "x2": draws**2}, None


def test_run_chunked_worker_count_is_invisible():
    a, _ = run_chunked(10_000, 7, _noisy_chunk, chunk_size=1024, workers=1)
    b, _ = run_chunked(10_000, 7, _noisy_chunk, chunk_size=1024, workers=4)
    for key in ("x", "x2"):
        assert a[key].n == b[key].n == 10_000
        assert a[key].mean == b[key].mean          # bitwise: serial merge order
        assert a[key].variance == b[key].variance


def test_run_chunked_seeding_matches_manual_spawn():
    stats, _ = run_chunked(300, 11, _noisy_chunk, chunk_size=100, workers=1)
    manual = RunningMoments()
    for child in np.random.SeedSequence(11).spawn(3):
        manual.update(np.random.default_rng(child).standard_normal(100))
    assert stats["x"].mean == manual.mean
    assert stats["x"].variance == manual.variance


def test_run_chunked_returns_outs_in_chunk_order_whichever_finishes_first(monkeypatch):
    import threading

    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    chunk1_done = threading.Event()

    def chunk(seed_seq, n):
        idx = 0 if n == 20 else 1   # the layout is 20 + 10
        if idx == 0:   # finish after chunk 1, so a pool returns chunk 1's result first
            assert chunk1_done.wait(timeout=10.0), "chunk 1 never ran beside chunk 0"
        else:
            chunk1_done.set()
        return {"n": np.full(n, float(idx))}, idx

    stats, outs = run_chunked(30, 0, chunk, chunk_size=20, workers=2)
    assert outs == [0, 1]
    assert stats["n"].n == 30 and stats["n"].total == 10.0
