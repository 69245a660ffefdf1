"""Utility functions, convex conjugates, and terminal wealth duality.

A utility here is strictly increasing, strictly concave and continuously
differentiable on (0, inf), with marginal utility sliding from +inf at 0 to
0 at +inf.  The Legendre transform

    U~(y) = U(I(y)) - I(y) y,        I = (U')^{-1}

and the state-price calibration

    big_X(y) = E[H I(y H)],   y* solves big_X(y*) = x0,   xi = I(y* H)

tie a candidate optimal terminal wealth to an initial budget x0.  For log
utility everything collapses to closed forms: big_X(y) = 1/y, y* = 1/x0,
xi = x0 / H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ModelError
from .params import MarketParams

__all__ = [
    "UtilitySpec",
    "log_utility",
    "power_utility",
    "validate_utility",
    "conjugate",
    "conjugate_grid_sup",
    "double_conjugate_grid",
    "BigXEstimate",
    "big_X",
    "lagrange_multiplier",
    "optimal_terminal_wealth",
    "LogOptimalReport",
    "log_optimal_report",
    "log_optimal_closed_forms",
]


@dataclass
class UtilitySpec:
    """A utility with its marginal, inverse marginal, and optional extras.

    growth, when declared, is the pair (alpha, nu) certifying
    0 <= U(x) <= alpha (1 + x^nu) on (0, inf) with nu in (0, 1).
    big_x_exact is a closed form for E[H I(y H)] valid for any H law (only
    log utility has one: the integrand is identically 1/y).
    """

    name: str
    u: Callable[[np.ndarray], np.ndarray]
    u_prime: Callable[[np.ndarray], np.ndarray]
    inverse_marginal: Callable[[np.ndarray], np.ndarray]
    growth: tuple[float, float] | None = None
    big_x_exact: Callable[[float], float] | None = None


def log_utility() -> UtilitySpec:
    return UtilitySpec(
        name="log",
        u=np.log,
        u_prime=lambda x: 1.0 / np.asarray(x, float),
        inverse_marginal=lambda y: 1.0 / np.asarray(y, float),
        growth=None,
        big_x_exact=lambda y: 1.0 / y,
    )


def power_utility(delta: float) -> UtilitySpec:
    """U(x) = x^delta / delta for delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ModelError("power utility needs delta in (0, 1)")
    exp_i = 1.0 / (delta - 1.0)

    return UtilitySpec(
        name=f"power_{delta:g}",
        u=lambda x: np.asarray(x, float) ** delta / delta,
        u_prime=lambda x: np.asarray(x, float) ** (delta - 1.0),
        inverse_marginal=lambda y: np.asarray(y, float) ** exp_i,
        growth=(1.0 / delta, delta),
        big_x_exact=None,
    )


# -- registration-time validation ------------------------------------------


def validate_utility(u: UtilitySpec, n_grid: int = 400) -> dict:
    """Numeric battery a utility must pass before use.

    Checks monotonicity and concavity on a log grid, Inada behaviour through
    numeric surrogates, consistency of the inverse marginal, the declared
    growth bound, and the marginal against central finite differences.
    """
    x = np.geomspace(1e-6, 1e6, n_grid)
    ux = u.u(x)
    report: dict[str, bool | float] = {}

    report["increasing"] = bool(np.all(np.diff(ux) > 0))
    # Concavity on an uneven grid: divided-difference slopes must decrease.
    slopes = np.diff(ux) / np.diff(x)
    report["concave"] = bool(np.all(np.diff(slopes) <= 1e-12 * np.abs(slopes[:-1])))
    report["inada_zero"] = bool(u.u_prime(1e-8) > 1e6)
    report["inada_infinity"] = bool(u.u_prime(1e8) < 1e-6)

    y = np.geomspace(1e-4, 1e4, n_grid)
    resid = np.abs(u.u_prime(u.inverse_marginal(y)) - y) / y
    report["inverse_marginal_max_rel_err"] = float(resid.max())
    report["inverse_marginal"] = bool(resid.max() <= 1e-10)

    if u.growth is not None:
        alpha, nu = u.growth
        ok = np.all(ux >= -1e-12) and np.all(ux <= alpha * (1.0 + x**nu) + 1e-12)
        report["growth_bound"] = bool(ok)

    xg = np.geomspace(1e-3, 1e3, 101)
    h = xg * 1e-6
    fd = (u.u(xg + h) - u.u(xg - h)) / (2.0 * h)
    rel = np.abs(fd - u.u_prime(xg)) / np.abs(u.u_prime(xg))
    report["marginal_fd_max_rel_err"] = float(rel.max())
    report["marginal_matches_fd"] = bool(rel.max() <= 1e-6)

    report["ok"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


# -- conjugates -------------------------------------------------------------


def conjugate(u: UtilitySpec, y) -> np.ndarray:
    """Legendre transform via the first-order condition, U(I(y)) - I(y) y."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ModelError("conjugate is defined for y > 0")
    i = u.inverse_marginal(y)
    return u.u(i) - i * y


# y rows per grid pass: (rows, 801) temporaries of about 1.6 MB leave peak RSS where it was.
_Y_BLOCK = 256


def _golden_section_max(f: Callable, a, b, n_iter: int, levels: int = 1):
    """Golden-section search (Kiefer 1953) for a maximum of f on each bracket [a, b].

    a and b are 1-D arrays of brackets, and each takes the scalar branch (the
    same `fc > fd` test, ties and NaN included).  f maps points to its values
    there, elementwise; the points' last axis runs over the brackets.  Each
    call of f serves `levels` iterations.  The first one's branch is known, so
    at one level f sees one point per bracket, shape (brackets,), as in the
    one-step loop.  At more, f also sees every point either branch of the later
    iterations could ask for, shape (2^levels - 1, brackets), each formed with
    the one-step loop's float operations, and the real `fc > fd` tests pick
    points and values level by level.  So the result is the one-step loop's,
    bit for bit, from ceil(n_iter / levels) + 1 calls of f (c and d share the
    first).  Look-ahead pays only where a call of f costs more than the
    bookkeeping of the extra points.
    Returns the final bracket (a, b) and f at its two interior points.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.array([c, d]))
    rows = np.arange(a.size)
    full, rest = divmod(n_iter, levels)
    for k in [levels] * full + [rest] * (rest > 0):      # the iterations of each call of f
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = invphi * (b - a)
        p = np.where(left, b - step, a + step)
        c, d = np.where(left, p, d), np.where(left, c, p)
        if k == 1:
            fp = f(p)
            fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
            continue
        # Levels 1..k-1 take both branches: node i of a level of w nodes has its
        # left child (fc > fd) at i and its right child at i + w on the next level.
        nodes, points = [v[None] for v in (a, b, c, d)], [p[None]]
        for _ in range(1, k):
            a_, b_, c_, d_ = nodes
            p_left, p_right = d_ - invphi * (d_ - a_), c_ + invphi * (b_ - c_)
            nodes = [np.concatenate(pair) for pair in ((a_, c_), (d_, b_), (p_left, d_), (c_, p_right))]
            points.append(np.concatenate([p_left, p_right]))
        fp = f(np.concatenate(points))           # level j in rows 2^j - 1 .. 2^(j+1) - 2
        node = np.zeros(a.size, dtype=np.intp)   # each bracket's node on the current level
        for j in range(k):
            if j:
                left = fc > fd
                node += np.where(left, 0, 1 << (j - 1))
            f_new = fp[(1 << j) - 1 + node, rows]
            fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        a, b, c, d = (v[node, rows] for v in nodes)
    return a, b, fc, fd


def conjugate_grid_sup(
    u: UtilitySpec,
    y: float | np.ndarray,
    x_lo: float = 1e-8,
    x_hi: float = 1e8,
    n_grid: int = 4001,
    n_refine: int = 80,
) -> float | np.ndarray:
    """Brute-force sup over x of U(x) - x y on a log grid plus refinement.

    Independent of the inverse marginal: locates the argmax on a dense grid,
    then tightens with golden-section search over the bracketing interval.
    y may be a scalar (a float comes back) or an array (the same shape comes
    back, bit-equal to scalar calls element by element).  The grid pass takes
    _Y_BLOCK rows of y at a time, so its (rows, n_grid) temporary stays
    bounded, and one golden-section search refines every row.
    """
    y = np.asarray(y, dtype=float)
    shape, y = y.shape, y.ravel()
    if np.any(y <= 0):
        raise ModelError("conjugate is defined for y > 0")
    x = np.geomspace(x_lo, x_hi, n_grid)
    ux = u.u(x)
    j, v_j = np.empty(y.size, dtype=np.intp), np.empty(y.size)
    for k in range(0, y.size, _Y_BLOCK):
        rows = slice(k, k + _Y_BLOCK)
        vals = np.multiply(x, y[rows, None])
        np.subtract(ux, vals, out=vals)
        j[rows] = np.argmax(vals, axis=-1)
        v_j[rows] = vals[np.arange(len(vals)), j[rows]]
    lo = x[np.maximum(j - 1, 0)]
    hi = x[np.minimum(j + 1, n_grid - 1)]

    def objective(t):
        xt = np.exp(t)
        return u.u(xt) - xt * y

    a, b, _, _ = _golden_section_max(objective, np.log(lo), np.log(hi), n_refine)
    x_star = np.exp(0.5 * (a + b))
    refined = u.u(x_star) - x_star * y
    sup = np.where(refined > v_j, refined, v_j)      # max(v_j, refined), NaN as before
    return float(sup[0]) if not shape else sup.reshape(shape)


def double_conjugate_grid(u: UtilitySpec, x: float | np.ndarray, n_grid: int = 4001,
                          n_refine: int = 80) -> float | np.ndarray:
    """inf over y of [U~(y) + x y], with U~ itself from the grid oracle.

    x may be a scalar (a float comes back) or an array (the same shape, bit-equal to scalar
    calls element by element): one U~ grid pass and one golden-section search serve every x.
    The search looks as many levels ahead as fit every x's points into one _Y_BLOCK grid-pass
    block, (2^levels - 1) x.size <= _Y_BLOCK: 6 levels for 3 x, one level from 86 x up.  So
    n_refine = 80 takes 1 + 1 + ceil(80 / levels) U~ calls, 16 for 3 x, where one level
    would take 82, with the same bits.
    """
    x = np.asarray(x, dtype=float)
    shape, x = x.shape, x.ravel()
    if not np.all(x > 0):
        raise ModelError("double conjugate is defined for x > 0")
    y = np.geomspace(1e-8, 1e8, n_grid)
    conj = conjugate_grid_sup(u, y, n_grid=801, n_refine=40)
    vals = conj + x[:, None] * y
    j = np.argmin(vals, axis=-1)
    v_j = vals[np.arange(x.size), j]
    lo = y[np.maximum(j - 1, 0)]
    hi = y[np.minimum(j + 1, n_grid - 1)]

    def neg_objective(t):
        yy = np.exp(t)
        return -(conjugate_grid_sup(u, yy, n_grid=801, n_refine=40) + x * yy)

    # the most levels with (2^levels - 1) x.size <= _Y_BLOCK, and at least one
    levels = max(1, (_Y_BLOCK // max(x.size, 1) + 1).bit_length() - 1)
    # Maximizing the negated objective: -fc > -fd branches as fc < fd, ties and NaN too.
    _, _, fc, fd = _golden_section_max(neg_objective, np.log(lo), np.log(hi), n_refine, levels)
    # min(v_j, -fc, -fd) as Python takes it: a later value wins only on a strict <.
    best = np.where(-fc < v_j, -fc, v_j)
    best = np.where(-fd < best, -fd, best)
    return float(best[0]) if not shape else best.reshape(shape)


# -- budget calibration -----------------------------------------------------


@dataclass
class BigXEstimate:
    value: float
    stderr: float
    n_samples: int
    exact: bool = False


def big_X(y: float, H_samples: np.ndarray, u: UtilitySpec) -> BigXEstimate:
    """Estimate E[H I(y H)] from terminal density samples.

    Utilities with a distribution-free closed form (log) return it exactly
    with zero standard error; the Monte Carlo route remains available for
    cross-checks through the samples themselves.
    """
    if y <= 0:
        raise ModelError("big_X is defined for y > 0")
    H = np.asarray(H_samples, dtype=float).ravel()
    if u.big_x_exact is not None:
        return BigXEstimate(value=float(u.big_x_exact(y)), stderr=0.0, n_samples=H.size, exact=True)
    vals = H * u.inverse_marginal(y * H)
    n = vals.size
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return BigXEstimate(value=float(vals.mean()), stderr=se, n_samples=n, exact=False)


def lagrange_multiplier(
    x0: float,
    H_samples: np.ndarray,
    u: UtilitySpec,
    lo: float = 1e-12,
    hi: float = 1e12,
    rtol: float = 1e-14,
    max_iter: int = 200,
) -> float:
    """Invert big_X by bisection: the y with E[H I(y H)] = x0.

    big_X is strictly decreasing in y, so the root is unique whenever the
    bracket contains it; a non-bracketing interval raises with the observed
    endpoint values to aid diagnosis.
    """
    if x0 <= 0:
        raise ModelError("initial wealth must be positive")

    def g(y: float) -> float:
        return big_X(y, H_samples, u).value - x0

    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0 > g_hi):
        raise ModelError(
            f"bisection bracket does not contain the budget: big_X({lo:g}) - x0 = {g_lo:g}, "
            f"big_X({hi:g}) - x0 = {g_hi:g}"
        )
    a, b = lo, hi
    for _ in range(max_iter):
        mid = np.sqrt(a * b)          # bisection in log space for a wide bracket
        if g(mid) > 0:
            a = mid
        else:
            b = mid
        if (b - a) <= rtol * b:
            break
    return float(np.sqrt(a * b))


def optimal_terminal_wealth(
    x0: float,
    H_terminal: np.ndarray,
    u: UtilitySpec,
    multiplier: float | None = None,
    H_samples: np.ndarray | None = None,
) -> np.ndarray:
    """Candidate optimal terminal wealth xi = I(y* H).

    y* is taken as given or calibrated by bisection against H_samples
    (defaulting to H_terminal itself); big_X supplies the closed form for
    utilities that have one.
    """
    H_terminal = np.asarray(H_terminal, dtype=float)
    if np.any(H_terminal <= 0):
        raise ModelError("state price density samples must be positive")
    if multiplier is None:
        samples = H_terminal if H_samples is None else H_samples
        multiplier = lagrange_multiplier(x0, samples, u)
    return u.inverse_marginal(multiplier * H_terminal)


# -- log-utility closed forms ----------------------------------------------


@dataclass
class LogOptimalReport:
    """Closed-form optimal wealth for log utility plus value-function views.

    value_mc is the sample mean of log xi_T; value_half uses the quadratic
    compensation 1/2 theta_hat* rho theta_hat inside the time sum, and
    value_flat drops the 1/2.  The two formulas differ by half the
    accumulated quadratic form; the Monte Carlo estimate arbitrates.  Only
    the terminal wealth comes back: the arbitration reads nothing else, and
    a full (..., N + 1) wealth path would be one more path-sized array.
    """

    xi_T: np.ndarray             # (...) terminal wealth
    value_mc: float
    value_mc_stderr: float
    value_half: float
    value_flat: float

    @property
    def flat_minus_mc(self) -> float:
        return self.value_flat - self.value_mc


def log_optimal_report(q: np.ndarray, log_growth: np.ndarray, params: MarketParams,
                       x0: float) -> LogOptimalReport:
    """The report from q = theta_hat* rho theta_hat dt per step, shape (..., N), and
    log_growth = log(xi_T / x0), shape (...), summed over the steps in order."""
    if x0 <= 0:
        raise ModelError("initial wealth must be positive")
    interest = (1.0 - params.m) * params.r * params.delta_t * q.shape[-1]
    q_sum = float(q.reshape(-1, q.shape[-1]).sum(axis=-1).mean())
    samples = np.atleast_1d(np.log(x0) + log_growth).ravel()
    n = samples.size
    return LogOptimalReport(
        xi_T=x0 * np.exp(log_growth),
        value_mc=float(samples.mean()),
        value_mc_stderr=float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        value_half=float(np.log(x0) + interest + 0.5 * q_sum),
        value_flat=float(np.log(x0) + interest + q_sum),
    )


def log_optimal_closed_forms(
    theta_hat: np.ndarray,
    dW: np.ndarray,
    params: MarketParams,
    x0: float,
) -> LogOptimalReport:
    """Evaluate xi = x0 exp{ sum [(1-m) r + 1/2 th* rho th] dt + sum th* dW }.

    theta_hat and dW have shape (..., N, d); the terminal wealth xi_T comes
    back with the value-function statistics.  A whole-path oracle for the
    step loop of duality-report, which feeds log_optimal_report row by row.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    dW = np.asarray(dW, dtype=float)
    q = np.einsum("...i,ij,...j->...", theta_hat, params.rho, theta_hat)
    q *= params.delta_t
    log_xi = 0.5 * q             # becomes rate dt + 1/2 q + th* dW, then its running sum
    log_xi += (1.0 - params.m) * params.r * params.delta_t
    log_xi += np.einsum("...i,...i->...", theta_hat, dW)
    np.cumsum(log_xi, axis=-1, out=log_xi)
    return log_optimal_report(q, log_xi[..., -1], params, x0)
