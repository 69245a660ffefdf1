"""The row kernels against the numpy calls they replace, bit for bit.

One edge table serves every kernel: its rows and their products with the
factors below are -0.0, +-inf, NaN, subnormal or zero, near or past
overflow, and spread over the exponent range.
"""

import numpy as np
import pytest

from futopt._rows import _dot, _quad_form, _row_norm, _times

_EDGES = np.concatenate([
    [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-300, -1e-300, 1e300, -1e300,
     1.7e308, -1.7e308, 3.0, 1e-200, 1e200, -1e200, 1.3e154],
    np.random.default_rng(1).standard_normal(400) * 10.0 ** np.arange(-200, 200),
])
#: The table as (n, 1) rows, and as a strided (n / 2, 2, 1) view of them.
_ROWS = _EDGES[:, None]
_STRIDED = _ROWS.reshape(2, -1, 1).transpose(1, 0, 2)


def _draw_rows():
    """A run of steps of a path-major draw: strided (steps, paths, 1) rows."""
    draw = np.broadcast_to(_EDGES, (4, _EDGES.size))[:, :, None].copy()   # (paths, steps, 1)
    return draw.transpose(1, 0, 2)[1::2]


def _same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- row x matrix products --------------------------------------------------

def _matmul(block, M):
    return (block.reshape(-1, block.shape[-1]) @ M.T).reshape(block.shape)


@pytest.mark.parametrize("m", [2.0, -0.5, 0.0, -0.0, 1e-10, 1e10, -np.inf, np.nan])
def test_times_is_the_matmul_bit_for_bit_at_d1(m):
    # At d = 1, _times multiplies: its bits must be matmul's, a -0.0 product
    # included, which matmul returns as +0.0.  For a strided block, such as
    # a run of steps of a path-major draw, the result must still be
    # C-contiguous, as matmul's is: a reduction over it sums in that order.
    M = np.array([[m]])
    for block in (_ROWS, _ROWS[np.isnan(_EDGES)], _draw_rows()):
        with np.errstate(all="ignore"):
            want, got = _matmul(block, M), _times(block, M)
            out = np.empty(block.shape)
            assert _times(block, M, out=out) is out
        assert got.flags.c_contiguous
        _same_bits(got, want)
        _same_bits(out, want)


def test_times_is_one_gemm_at_d2():
    rng = np.random.default_rng(0)
    M = np.array([[0.3, -1.2], [0.7, 2.0]])
    for block in (rng.standard_normal((5, 2)), rng.standard_normal((3, 4, 2)).transpose(1, 0, 2)):
        want = _matmul(block, M)
        got = _times(block, M)
        assert got.flags.c_contiguous and np.array_equal(got, want)
        out = np.empty(block.shape)
        assert _times(block, M, out=out) is out and np.array_equal(out, want)


# -- row dot products -------------------------------------------------------

@pytest.mark.parametrize("m", [2.0, -0.5, 0.0, -0.0, 1e-10, 1e200, -np.inf, np.nan])
def test_dot_is_the_einsum_bit_for_bit_at_d1(m):
    # At d = 1, _dot multiplies: its bits must be einsum's, a -0.0 product
    # included, which einsum returns as +0.0.  Like einsum it must warn of
    # no overflow or invalid product (pytest turns a warning into an error).
    for rows in (_ROWS, _draw_rows()):
        for other in (np.full(rows.shape, m), np.array([m]), rows):
            _same_bits(_dot(rows, other), np.einsum("...i,...i->...", rows, other))


def test_dot_is_the_einsum_at_d2():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 2)), rng.standard_normal((3, 5, 2))
    assert np.array_equal(_dot(a, b), np.einsum("...i,...i->...", a, b))


# -- quadratic forms and norms ----------------------------------------------

@pytest.mark.parametrize("rho00", [1.0, 1.0 + 1e-13, 1.0 - 1e-13, 0.3])
def test_quad_form_is_the_einsum_bit_for_bit_at_d1(rho00):
    # (theta rho_00) theta + 0.0 is einsum's order: at rho_00 = 1 +- 1e-13
    # (theta theta) rho_00 rounds differently on some rows.  Like einsum it
    # warns of nothing, 1e200 squared included.
    rho = np.array([[rho00]])
    for theta in (_ROWS, _STRIDED):
        _same_bits(_quad_form(theta, rho), np.einsum("...i,ij,...j->...", theta, rho, theta))


def test_row_norm_is_linalg_norm_bit_for_bit():
    # At d = 1 the norm is sqrt(theta theta); it overflows, and warns of it,
    # where np.linalg.norm does, and nowhere else.
    for theta in (_ROWS, np.random.default_rng(2).standard_normal((9, 3))):
        with np.errstate(over="ignore"):
            _same_bits(_row_norm(theta), np.linalg.norm(theta, axis=-1, keepdims=True))
    tame = _ROWS[~(np.abs(_EDGES) > 1e154)]
    assert np.array_equal(_row_norm(tame), np.linalg.norm(tame, axis=-1, keepdims=True), equal_nan=True)
    for norm in (_row_norm, lambda t: np.linalg.norm(t, axis=-1, keepdims=True)):
        with pytest.warns(RuntimeWarning, match="overflow"):
            norm(np.array([[1e200]]))
