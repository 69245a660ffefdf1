"""Row kernels: the products and norms the step loops take on path-sized rows.

Every per-step row x matrix product on path-sized rows goes through _times,
every row dot product through _dot, every quadratic form through _quad_form
and every row norm through _row_norm.  At d = 1, the shape of three of the
four shipped configs, numpy 2.4.6's matmul of an (n, 1) block by a (1, 1)
matrix ran 7-8x slower than a multiply (51-67 against 7-8 us at 8192-10 000
rows, one OpenBLAS thread), and einsum's row dot product 2-3x slower, so
there each is a multiply, plus 0.0 to give a zero product the sign matmul or
einsum gives it: the same bits in the same order.  d >= 2 keeps its gemm,
einsum and norm calls.  Every time above was taken on a 2-core x86-64 host.
"""

from __future__ import annotations

import numpy as np


def _times(block: np.ndarray, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """block @ M.T row-wise as a C-contiguous array (into out if given, which
    must then be C-contiguous), bit for bit what the 2-D matmul gives.

    At d >= 2 the rows go through one BLAS gemm: a lone (1, d) row would go
    through gemv, which can round differently.  At d = 1 the product is the
    multiply block * M[0, 0], which rounds as the matmul does, plus 0.0,
    which turns a -0.0 product into the +0.0 that matmul returns by adding
    it to a zero sum.  The multiply allocates C order, as matmul does: a
    K-order result of a strided block would change the summation order of
    any later reduction over its last axis.
    """
    if M.shape == (1, 1):
        out = np.multiply(block, M[0, 0], out=out, order="C")
        out += 0.0
        return out
    rows = block.reshape(-1, block.shape[-1])
    if out is None:
        return (rows @ M.T).reshape(block.shape)
    np.matmul(rows, M.T, out=out.reshape(rows.shape))
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """einsum("...i,...i->...", a, b), bit for bit: the dot product of each row.

    At d = 1 the product is the multiply a * b, which rounds as einsum does,
    plus 0.0, which turns a -0.0 product into the +0.0 einsum returns by
    adding it to a zero sum.  Like einsum it warns of no overflow or invalid
    product.
    """
    if a.shape[-1] == b.shape[-1] == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.multiply(a[..., 0], b[..., 0])
        out += 0.0
        return out
    return np.einsum("...i,...i->...", a, b)


def _row_norm(theta: np.ndarray) -> np.ndarray:
    """np.linalg.norm(theta, axis=-1, keepdims=True), bit for bit; at d = 1
    that is sqrt(theta theta), which warns of an overflow as norm does."""
    if theta.shape[-1] == 1:
        return np.sqrt(theta * theta)
    return np.linalg.norm(theta, axis=-1, keepdims=True)


def _quad_form(theta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """theta* rho theta per row, any leading shape, bit for bit einsum's.  At
    d = 1 that is (theta rho_00) theta + 0.0, in einsum's order, with its
    +0.0 for a -0.0 product, and like einsum it warns of nothing."""
    if rho.shape == (1, 1):
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.multiply(theta[..., 0], rho[0, 0])
            q *= theta[..., 0]
        q += 0.0
        return q
    return np.einsum("...i,ij,...j->...", theta, rho, theta)
