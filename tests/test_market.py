import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import bulk_draws
from futopt import (
    MarketParams,
    ModelError,
    PathBatch,
    build_batch,
    returns_from_prices,
    simulate_batch,
    simulate_drift,
)


def _params(**over):
    base = dict(d=1, n_steps=252, delta_t=1.0 / 252, sigma=0.2, rho=1.0,
                alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.08)
    base.update(over)
    return MarketParams(**base)


# -- increments -------------------------------------------------------------

# Many paths of few steps: long paths of dt = 1 overflow the prices.

def test_identity_correlation_unit_variance():
    p = _params(delta_t=1.0, n_steps=5)
    dW = simulate_batch(p, 0, 10_000).dW
    assert dW.shape == (10_000, 5, 1)
    assert dW.var() == pytest.approx(1.0, rel=0.02)


def test_zero_correlation_independent_columns():
    p = _params(d=2, rho=np.eye(2), sigma=0.2, F0=np.array([100.0, 100.0]),
                beta0=0.0, n_steps=5, delta_t=1.0)
    dW = simulate_batch(p, 1, 40_000).dW.reshape(-1, 2)
    r = np.corrcoef(dW[:, 0], dW[:, 1])[0, 1]
    assert abs(r) < 3.0 / np.sqrt(200_000)


def test_sample_covariance_matches_rho_dt():
    rho = np.array([[1.0, 0.5], [0.5, 1.0]])
    p = _params(d=2, rho=rho, F0=np.array([100.0, 100.0]), beta0=0.0, n_steps=10)
    dW = simulate_batch(p, 2, 100_000).dW.reshape(-1, 2)
    n = dW.shape[0]
    cov = dW.T @ dW / n
    target = rho * p.delta_t
    # stderr of a sample covariance entry of a bivariate normal
    se = np.sqrt((np.outer(np.diag(rho), np.diag(rho)) + rho**2) * p.delta_t**2 / n)
    assert np.all(np.abs(cov - target) <= 3.0 * se)


def test_increments_deterministic_given_seed():
    p = _params(n_steps=64)
    a = simulate_batch(p, 7, 3)
    b = simulate_batch(p, 7, 3)
    assert np.array_equal(a.dW, b.dW)
    assert a.dW2 is None and b.dW2 is None   # the drift noise is not kept once beta is built


# -- drift ------------------------------------------------------------------

def test_frozen_drift_stays_at_beta0():
    p = _params(varsigma=0.0, alpha=0.0, n_steps=100)
    beta = simulate_drift(p, np.zeros((100, 1)))
    assert np.all(beta == p.beta0)


def test_one_step_drift_hand_value():
    p = _params(alpha=-1.0, varsigma=0.0, delta_t=0.1, beta0=0.1, n_steps=1)
    beta = simulate_drift(p, np.zeros((1, 1)))
    assert beta[1, 0] == pytest.approx(0.09, abs=1e-15)


def test_contracting_drift_shrinks():
    p = _params(alpha=-2.0, varsigma=0.0, delta_t=0.05, beta0=0.1, n_steps=200)
    beta = simulate_drift(p, np.zeros((200, 1)))
    assert np.linalg.norm(beta[-1]) <= np.linalg.norm(beta[0])
    assert np.linalg.norm(beta[-1]) < 1e-3


# -- paths ------------------------------------------------------------------

def test_no_noise_no_drift_constant_price():
    p = _params(sigma=0.0, varsigma=0.0, beta0=0.0, n_steps=20)
    path = simulate_batch(p, 0, 1)
    assert np.all(path.F == 100.0)
    assert np.all(path.R == 0.0)


def test_one_step_price_hand_value():
    p = _params(sigma=0.0, varsigma=0.0, beta0=0.08, n_steps=1)
    path = simulate_batch(p, 0, 1)
    assert path.F[0, 1, 0] == pytest.approx(100.0 * (1 + 0.08 / 252), rel=1e-15)


def test_same_seed_bit_identical():
    p = _params(varsigma=0.1, alpha=-0.5, n_steps=64)
    a = simulate_batch(p, 123, 1)
    b = simulate_batch(p, 123, 1)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.R, b.R)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.dW, b.dW)


def test_batch_path_view_matches_singleton():
    # a batch of one built from path 1's increments is path 1 of the batch
    p = _params(varsigma=0.1, n_steps=32)
    batch = simulate_batch(p, 5, 3)
    assert batch.F.shape == (3, 33, 1)
    assert (batch.n_paths, batch.n_steps, batch.d) == (3, 32, 1)
    _, dW2 = bulk_draws(p, 5, 3)
    one = build_batch(p, batch.dW[1:2], simulate_drift(p, dW2[1:2]))
    assert one.n_paths == 1
    for name in ("F", "R", "beta", "guard_events"):
        assert np.array_equal(getattr(one, name), getattr(batch, name)[1:2])


def test_same_seed_sequence_object_reused_gives_same_batch():
    p = _params(varsigma=0.1, n_steps=32)
    ss = np.random.SeedSequence(7).spawn(2)[1]
    a = simulate_batch(p, ss, 4)
    b = simulate_batch(p, ss, 4)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.beta, b.beta)


def test_delta_R_is_delta_F_over_F():
    p = _params(varsigma=0.1, alpha=-0.5, n_steps=128)
    path = simulate_batch(p, 9, 1)
    delta_F = np.diff(path.F, axis=1)
    assert np.allclose(path.delta_R(), delta_F / path.F[:, :-1], rtol=1e-12)


def test_price_return_round_trip():
    p = _params(n_steps=128)
    path = simulate_batch(p, 11, 1)
    R = returns_from_prices(path.F)
    assert np.allclose(R, path.R, rtol=1e-12, atol=1e-12)
    F = p.F0 * np.cumprod(1.0 + path.delta_R(), axis=1)
    assert np.allclose(F, path.F[:, 1:], rtol=1e-12)


def test_positivity_guard_floors_factor():
    # sigma large enough that the one-step factor goes negative for sure
    p = _params(sigma=50.0, n_steps=40, pos_floor=1e-8)
    path = simulate_batch(p, 3, 1)
    assert np.all(path.F > 0)
    assert path.guard_events[0] > 0
    # on guarded steps the stored return increment equals the floored factor
    # (1 + dR reconstructs it only up to one rounding of the subtraction)
    dR = path.delta_R()
    assert np.all(1.0 + dR >= p.pos_floor - 1e-15)


def test_positivity_floor_underflows_after_about_40_hits():
    # Each guarded step multiplies F by pos_floor = 1e-8: from F0 = 100 the
    # price reaches 0.0 after about 40 hits, and trading on it then fails
    # with a ModelError (the CLI's exit 2) naming the first step at which a
    # contract is priced at zero, and the first path there.
    from futopt import ZeroStrategy, run_backtest

    p = _params(sigma=30.0, n_steps=252)
    batch = simulate_batch(p, 0, 2)
    assert np.all(batch.guard_events > 40)
    assert np.all(batch.F[:, -1] == 0.0)
    flipped = build_batch(p, batch.dW[::-1], batch.beta[::-1])   # the same two paths, swapped
    for b, path in ((batch, 0), (flipped, 1)):
        zero = np.any(b.F[:, :-1] <= 0, axis=2)           # (paths, steps) priced at zero
        step = int(np.argmax(zero.any(axis=0)))
        assert 0 < step < p.n_steps and int(np.argmax(zero[:, step])) == path
        with pytest.raises(ModelError, match=rf"strictly positive: F = \[0\.0\] at step {step} on path {path}$"):
            run_backtest(b, ZeroStrategy(), p, 1.0)


def test_guard_absent_for_tame_parameters():
    p = _params(n_steps=252)
    path = simulate_batch(p, 4, 1)
    assert path.guard_events[0] == 0


def test_mean_return_residual_within_3_stderr():
    p = _params(n_steps=100_000, varsigma=0.0)
    path = simulate_batch(p, 5, 1)
    resid = path.delta_R()[0, :, 0] - p.beta0[0] * p.delta_t
    se = resid.std(ddof=1) / np.sqrt(resid.size)
    assert abs(resid.mean()) <= 3.0 * se


def test_quadratic_variation_close_to_rho():
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    p = _params(d=2, rho=rho, F0=np.array([100.0, 100.0]),
                beta0=np.array([0.0, 0.0]), n_steps=100_000)
    dW = simulate_batch(p, 6, 1).dW[0]
    qv = dW.T @ dW / p.horizon
    n = p.n_steps
    se = np.sqrt(np.outer(np.diag(rho), np.diag(rho)) + rho**2) / np.sqrt(n)
    assert np.all(np.abs(qv - rho) <= 3.0 * se)


def test_build_batch_reproduces_simulation():
    p = _params(varsigma=0.1, alpha=-0.5, n_steps=64)
    path = simulate_batch(p, 21, 2)
    _, dW2 = bulk_draws(p, 21, 2)
    rebuilt = build_batch(p, path.dW, simulate_drift(p, dW2))
    assert np.array_equal(rebuilt.F, path.F)
    assert np.array_equal(rebuilt.beta, path.beta)


def _bulk_build(p, dW, dW2):
    """Test-local copy of the earlier whole-array, path-major build.

    3-D matmuls, cumprod and cumsum along the step axis, and the drift loop
    over strided [:, i, :] slices.
    """
    n_paths, n, d = dW.shape
    dt = p.delta_t
    A = np.eye(d) + p.alpha * dt
    shock = dW2 @ p.varsigma.T
    beta = np.empty((n_paths, n + 1, d))
    beta[:, 0, :] = p.beta0
    for i in range(n):
        beta[:, i + 1, :] = beta[:, i, :] @ A.T + shock[:, i, :]
    factor = 1.0 + beta[:, :n, :] * dt + dW @ p.sigma.T
    guarded = np.maximum(factor, p.pos_floor)
    F = np.empty((n_paths, n + 1, d))
    F[:, 0, :] = p.F0
    F[:, 1:, :] = p.F0 * np.cumprod(guarded, axis=1)
    R = np.zeros((n_paths, n + 1, d))
    np.cumsum(guarded - 1.0, axis=1, out=R[:, 1:, :])
    guard_events = (factor < p.pos_floor).sum(axis=(1, 2))
    return dict(F=F, R=R, beta=beta, dW=dW, guard_events=guard_events)


_TWO_ASSET = dict(d=2, sigma=[[0.2, 0.05], [0.0, 0.25]], rho=[[1.0, 0.3], [0.3, 1.0]],
                  alpha=[[-0.5, 0.0], [0.1, -1.0]], varsigma=[[0.1, 0.02], [0.0, 0.15]],
                  F0=[100.0, 2.0], beta0=[0.08, -0.04])
STEP_MAJOR_CASES = {
    # (params, n_paths), sized so that a batch spans several step blocks
    "d1": (_params(varsigma=0.1, alpha=-0.5, n_steps=48), 700),
    "d2": (_params(n_steps=48, **_TWO_ASSET), 700),
    "guarded": (_params(sigma=20.0, varsigma=0.3, alpha=-0.5, n_steps=24), 1400),
    "d2_one_long_path": (_params(n_steps=17_000, **_TWO_ASSET), 1),
    # one full block of the noise draw plus one path
    "d1_one_block_plus_one": (_params(varsigma=0.1, alpha=-0.5, n_steps=48), 257),
    # no drift noise is drawn; the bulk build's gemm over +-0 shocks must give beta's bits
    "d2_fixed_drift": (_params(n_steps=48, **{**_TWO_ASSET, "varsigma": np.zeros((2, 2)),
                                              "beta0": [0.0, -0.04]}), 300),
}


def _bits(a):
    return a.view(np.uint64) if a.dtype == float else a


@pytest.mark.parametrize("case", sorted(STEP_MAJOR_CASES))
def test_streamed_build_equals_bulk_build(case):
    # The step-major, block-by-block build gives the bulk build's values bit
    # for bit, from simulate_batch and from build_batch on path-major
    # increments and the drift built from the redrawn drift noise, whole or
    # sliced (a one-path slice included at d = 2); signed zeros included.
    p, n_paths = STEP_MAJOR_CASES[case]
    dW, dW2 = bulk_draws(p, 17, n_paths)
    names = ("F", "R", "beta", "dW", "guard_events")
    ref = _bulk_build(p, dW, dW2)
    if case == "guarded":
        assert ref["guard_events"].sum() > n_paths
    batch = simulate_batch(p, 17, n_paths)
    assert batch.F[:, 3].flags.c_contiguous
    assert batch.dW2 is None
    for name in names:
        assert np.array_equal(_bits(getattr(batch, name)), _bits(ref[name])), name
    for rows in (slice(None), slice(1, 2), slice(None, None, 3)):
        ref = _bulk_build(p, dW[rows], dW2[rows])
        rebuilt = build_batch(p, dW[rows], simulate_drift(p, dW2[rows]))
        for name in names:
            assert np.array_equal(_bits(getattr(rebuilt, name)), _bits(ref[name])), (name, rows)


def test_csv_round_trip(tmp_path):
    # every float cell of a path CSV parses back to the batch's value, at d = 1
    # and d = 2; a path without latent fields (ingested prices) leaves the beta
    # cells empty
    from futopt.experiments import _path_rows, _write_csv

    out = tmp_path / "p.csv"
    for p in (_params(varsigma=0.1, n_steps=16),
              _params(d=2, rho=np.array([[1.0, 0.3], [0.3, 1.0]]), varsigma=0.1, n_steps=16,
                      F0=np.array([100.0, 2.0]), beta0=np.array([0.08, -0.04]))):
        d = p.d
        batch = simulate_batch(p, 8, 3)
        _write_csv(out, *_path_rows(batch, 1))
        header, *rows = out.read_text().splitlines()
        assert header.split(",") == ["time"] + [f"{c}_{j}" for c in ("F", "R", "beta") for j in range(1, d + 1)]
        back = np.array([row.split(",") for row in rows], dtype=float)
        assert np.array_equal(back[:, 0], batch.t_grid)
        assert np.array_equal(back[:, 1:], np.concatenate([batch.F[1], batch.R[1], batch.beta[1]], axis=1))

        _write_csv(out, *_path_rows(PathBatch(t_grid=batch.t_grid, F=batch.F[1:2], R=batch.R[1:2]), 0))
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert all(row[-d:] == [""] * d for row in rows)
        back = np.array([row[:-d] for row in rows], dtype=float)
        assert np.array_equal(back, np.concatenate([batch.t_grid[:, None], batch.F[1], batch.R[1]], axis=1))


def test_simulate_batch_rejects_zero_paths():
    with pytest.raises(ModelError):
        simulate_batch(_params(), 0, 0)


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(3, 12), st.integers(1, 3)),
        elements=st.floats(1.0, 100.0),
    )
)
def test_returns_prices_round_trip_property(F):
    R = returns_from_prices(F)
    F_back = F[0] * np.cumprod(1.0 + np.diff(R, axis=0), axis=0)
    assert np.allclose(F_back, F[1:], rtol=1e-9)
    assert np.all(R[0] == 0.0)
