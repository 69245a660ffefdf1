import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futopt import MarketParams, ModelError, NotPositiveDefiniteError
from futopt.params import MAX_ASSETS, cholesky_pd


def test_scalar_promotion_shapes():
    p = MarketParams(d=3, n_steps=10, delta_t=0.1, sigma=0.2, rho=1.0,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                     m=0.0, r=0.0, k=1.0, F0=100.0, beta0=0.0)
    assert p.sigma.shape == (3, 3)
    assert np.allclose(p.sigma, 0.2 * np.eye(3))
    assert np.allclose(p.rho, np.eye(3))
    assert p.F0.shape == (3,)
    assert p.beta0.shape == (3,)


def test_m_out_of_range_message():
    with pytest.raises(ModelError, match=r"m must lie in \[0,1\]"):
        MarketParams(d=1, n_steps=1, delta_t=0.1, sigma=0.2, rho=1.0,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                     m=1.5, r=0.0, k=1.0, F0=1.0, beta0=0.0)


def test_rho_not_positive_definite_names_rho_and_minor():
    rho = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.9], [0.1, 0.9, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as err:
        MarketParams(d=3, n_steps=1, delta_t=0.1, sigma=0.2, rho=rho,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                     m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)
    assert "rho" in str(err.value)
    assert err.value.minor_order == 3


def test_rho_asymmetric_rejected():
    rho = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ModelError, match="rho"):
        MarketParams(d=2, n_steps=1, delta_t=0.1, sigma=0.2, rho=rho,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                     m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)


@pytest.mark.parametrize("field,value,msg", [
    ("F0", -1.0, "F0"),
    ("f", 0.0, "f"),
    ("k", -2.0, "k"),
    ("c_spread", -0.1, "c_spread"),
    ("delta_t", 0.0, "delta_t"),
])
def test_positivity_validation(field, value, msg):
    kwargs = dict(d=1, n_steps=1, delta_t=0.1, sigma=0.2, rho=1.0,
                  alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                  m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)
    kwargs[field] = value
    with pytest.raises(ModelError, match=msg):
        MarketParams(**kwargs)


@pytest.mark.parametrize("field", ["delta_t", "m", "r"])
def test_vector_scalar_field_named(field):
    kwargs = dict(d=2, n_steps=1, delta_t=0.1, sigma=0.2, rho=1.0,
                  alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                  m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)
    kwargs[field] = [0.1, 0.2]
    with pytest.raises(ModelError, match=rf"{field} must be a scalar, got shape \(2,\)"):
        MarketParams(**kwargs)


def test_t_grid_and_horizon(p1):
    assert p1.horizon == pytest.approx(1.0)
    g = p1.t_grid
    assert g.shape == (253,)
    assert g[0] == 0.0
    assert np.allclose(np.diff(g), p1.delta_t)


def test_noise_cov_is_sigma_rho_sigma_t_dt(p2):
    expected = p2.sigma @ p2.rho @ p2.sigma.T * p2.delta_t
    assert np.allclose(p2.noise_cov(), expected)


def test_rho_cholesky_reconstructs(p2):
    L = p2.rho_cholesky()
    assert np.allclose(L @ L.T, p2.rho)


def test_with_updates_keeps_other_fields(p1):
    q = p1.with_updates(delta_t=1.0 / 504, c_spread=0.0)
    assert q.delta_t == pytest.approx(1.0 / 504)
    assert np.all(q.c_spread == 0.0)
    assert q.n_steps == p1.n_steps
    assert np.allclose(q.sigma, p1.sigma)


def test_arrays_are_read_only(p1):
    with pytest.raises(ValueError):
        p1.sigma[0, 0] = 99.0


def test_cholesky_pd_identity():
    L = cholesky_pd(np.eye(4), "rho")
    assert np.allclose(L, np.eye(4))


def test_cholesky_pd_reports_first_bad_minor():
    # minor of order 1 is already non-positive
    mat = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky_pd(mat, "test_matrix")
    assert err.value.minor_order == 1
    assert "order 1" in str(err.value)


def test_sigma_singular_allowed_at_construction():
    # a zero volatility matrix is a legal market (deterministic prices);
    # only the filter rejects it.
    p = MarketParams(d=1, n_steps=4, delta_t=0.1, sigma=0.0, rho=1.0,
                     alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                     m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)
    assert not p.sigma_invertible()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_scalar_matrix_raises_without_warning(d, value):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="sigma must be finite"):
            MarketParams(d=d, n_steps=1, delta_t=0.1, sigma=value, rho=1.0,
                         alpha=0.0, varsigma=0.0, f=1.0, c_spread=0.0,
                         m=0.0, r=0.0, k=1.0, F0=1.0, beta0=0.0)


_VALUES = st.one_of(st.floats(), st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0]))
_VALID = {   # a valid draw for each field, scalar or vector
    "sigma": st.floats(0.0, 2.0), "rho": st.just(1.0), "alpha": st.floats(-2.0, 0.0),
    "varsigma": st.floats(0.0, 1.0), "f": st.floats(0.01, 1e3), "c_spread": st.floats(0.0, 1.0),
    "k": st.floats(0.1, 10.0), "F0": st.floats(0.01, 1e3), "beta0": st.floats(-1.0, 1.0),
    "delta_t": st.floats(1e-4, 1.0), "m": st.floats(0.0, 1.0), "r": st.floats(-0.1, 0.1),
    "t0": st.floats(-10.0, 10.0), "guard_warn_fraction": st.floats(0.0, 1.0),
}
_SCALARS = ("rho", "delta_t", "m", "r", "t0", "guard_warn_fraction")   # valid draws are scalars
_MATRICES = ("sigma", "rho", "alpha", "varsigma")


@st.composite
def _market_kwargs(draw):
    """MarketParams arguments with d across the limit.  Up to three fields
    are drawn from NaN, +-inf, negative or any float, as a scalar, a vector,
    or (matrix fields) a diagonal or equicorrelation matrix; the rest are
    valid, so draws reach every check."""
    d = draw(st.integers(1, 300))
    bad = draw(st.sets(st.sampled_from(sorted(_VALID) + ["n_steps"]), max_size=3))

    def vector(values):
        return np.resize(np.array(draw(st.lists(values, min_size=1, max_size=3))), d)

    def field(name):
        values = _VALUES if name in bad else _VALID[name]
        kinds = ["scalar"]
        if name in bad or name not in _SCALARS:
            kinds.append("diag" if name in _MATRICES else "vector")
        if name in bad and name in _MATRICES:
            kinds += ["vector", "equicorr"]
        kind = draw(st.sampled_from(kinds))
        if kind == "scalar":
            return draw(values)
        if kind == "diag":
            return np.diag(vector(values))
        if kind == "equicorr":
            mat = np.full((d, d), draw(values))
            np.fill_diagonal(mat, 1.0)
            return mat
        return vector(values)

    kwargs = {name: field(name) for name in _VALID}
    kwargs["d"] = d
    kwargs["n_steps"] = draw(st.integers(-2, 0) if "n_steps" in bad else st.integers(1, 300))
    return kwargs


@settings(max_examples=200, deadline=None)
@given(_market_kwargs())
def test_random_market_params_raise_only_named_errors(kwargs):
    try:
        p = MarketParams(**kwargs)
    except Exception as exc:
        assert type(exc).__module__ == "futopt.errors", repr(exc)
        if kwargs["d"] > MAX_ASSETS:
            assert f"limit of {MAX_ASSETS}" in str(exc)
    else:
        assert kwargs["d"] <= MAX_ASSETS
        assert np.isfinite(p.t0) and 0.0 <= p.guard_warn_fraction <= 1.0
