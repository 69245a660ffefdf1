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
    "log_optimal_closed_forms",
    "ProbeRow",
    "optimality_probe",
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
    conj: Callable[[np.ndarray], np.ndarray] | None = None
    growth: tuple[float, float] | None = None
    big_x_exact: Callable[[float], float] | None = None


def log_utility() -> UtilitySpec:
    return UtilitySpec(
        name="log",
        u=np.log,
        u_prime=lambda x: 1.0 / np.asarray(x, float),
        inverse_marginal=lambda y: 1.0 / np.asarray(y, float),
        conj=lambda y: -np.log(np.asarray(y, float)) - 1.0,
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
        conj=lambda y: (1.0 / delta - 1.0) * np.asarray(y, float) ** (delta * exp_i),
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


def _golden_section_max(f: Callable, a, b, n_iter: int):
    """Golden-section search (Kiefer 1953) for a maximum of f on [a, b].

    Elementwise over arrays of brackets: each element takes the scalar branch
    (the same `fc > fd` test, ties and NaN included); f sees one new point each.
    Returns the final bracket (a, b) and f at its two interior points.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_iter):
        left = fc > fd
        a, b = np.where(left, (a, d), (c, b))
        p = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = f(p)
        c, d, fc, fd = np.where(left, (p, c, fp, fc), (d, p, fd, fp))
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
    back, bit-equal to scalar calls element by element).  An array costs a
    (y.size, n_grid) temporary, so callers pass long y grids in blocks of rows.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ModelError("conjugate is defined for y > 0")
    x = np.geomspace(x_lo, x_hi, n_grid)
    vals = u.u(x) - x * y[..., None]
    j = np.argmax(vals, axis=-1)
    v_j = np.take_along_axis(vals, j[..., None], axis=-1)[..., 0]
    lo = x[np.maximum(j - 1, 0)]
    hi = x[np.minimum(j + 1, n_grid - 1)]

    def objective(t):
        xt = np.exp(t)
        return u.u(xt) - xt * y

    a, b, _, _ = _golden_section_max(objective, np.log(lo), np.log(hi), n_refine)
    x_star = np.exp(0.5 * (a + b))
    refined = u.u(x_star) - x_star * y
    sup = np.where(refined > v_j, refined, v_j)      # max(v_j, refined), NaN as before
    return float(sup) if sup.ndim == 0 else sup


# y rows per oracle call: (rows, 801) temporaries of about 1.6 MB leave peak RSS where it was.
_Y_BLOCK = 256


def double_conjugate_grid(u: UtilitySpec, x: float, n_grid: int = 4001, n_refine: int = 80) -> float:
    """inf over y of [U~(y) + x y], with U~ itself from the grid oracle."""
    if x <= 0:
        raise ModelError("double conjugate is defined for x > 0")
    y = np.geomspace(1e-8, 1e8, n_grid)
    blocks = np.split(y, range(_Y_BLOCK, n_grid, _Y_BLOCK))
    vals = np.concatenate([conjugate_grid_sup(u, yb, n_grid=801, n_refine=40) for yb in blocks]) + x * y
    j = int(np.argmin(vals))
    lo = y[max(j - 1, 0)]
    hi = y[min(j + 1, n_grid - 1)]

    def neg_objective(t: float) -> float:
        yy = np.exp(t)
        return -(conjugate_grid_sup(u, yy, n_grid=801, n_refine=40) + x * yy)

    # Maximizing the negated objective: -fc > -fd branches as fc < fd, ties and NaN too.
    _, _, fc, fd = _golden_section_max(neg_objective, np.log(lo), np.log(hi), n_refine)
    return float(min(vals[j], -fc, -fd))


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
    accumulated quadratic form; the Monte Carlo estimate arbitrates.
    """

    xi: np.ndarray               # (..., N + 1) wealth path(s)
    value_mc: float
    value_mc_stderr: float
    value_half: float
    value_flat: float

    @property
    def flat_minus_mc(self) -> float:
        return self.value_flat - self.value_mc


def log_optimal_closed_forms(
    theta_hat: np.ndarray,
    dW: np.ndarray,
    params: MarketParams,
    x0: float,
) -> LogOptimalReport:
    """Evaluate xi = x0 exp{ sum [(1-m) r + 1/2 th* rho th] dt + sum th* dW }.

    theta_hat and dW have shape (..., N, d); per-path wealth trajectories
    come back with the value-function statistics.
    """
    if x0 <= 0:
        raise ModelError("initial wealth must be positive")
    theta_hat = np.asarray(theta_hat, dtype=float)
    dW = np.asarray(dW, dtype=float)
    dt = params.delta_t
    rate = (1.0 - params.m) * params.r

    a = np.einsum("...i,...i->...", theta_hat, dW)
    q = np.einsum("...i,ij,...j->...", theta_hat, params.rho, theta_hat) * dt

    increments = rate * dt + 0.5 * q + a
    log_xi = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=log_xi[..., 1:])
    xi = x0 * np.exp(log_xi)

    log_xi_T = np.log(x0) + log_xi[..., -1]
    samples = np.atleast_1d(log_xi_T).ravel()
    n = samples.size
    value_mc = float(samples.mean())
    se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    interest = rate * dt * q.shape[-1]
    q_sum = float(q.reshape(-1, q.shape[-1]).sum(axis=-1).mean())

    return LogOptimalReport(
        xi=xi,
        value_mc=value_mc,
        value_mc_stderr=se,
        value_half=float(np.log(x0) + interest + 0.5 * q_sum),
        value_flat=float(np.log(x0) + interest + q_sum),
    )


# -- policy optimality probe ------------------------------------------------


@dataclass
class ProbeRow:
    """Expected utility of one policy, with the paired gap to the base."""

    policy: str
    n_paths: int
    mean_utility: float
    stderr: float
    diff_vs_base: float = 0.0
    diff_stderr: float = 0.0

    @property
    def base_dominates(self) -> bool:
        return self.diff_vs_base < -2.0 * self.diff_stderr

    @property
    def degenerate(self) -> bool:  # every paired difference is 0: the policy ties the base
        return self.diff_vs_base == 0.0 and self.diff_stderr == 0.0


def optimality_probe(
    params: MarketParams,
    x0: float,
    base_factory: Callable,
    perturbation_factories: dict[str, Callable],
    n_paths: int,
    seed: int = 0,
    u: UtilitySpec | None = None,
    chunk_size: int = 8192,
    workers: int | None = None,
) -> list[ProbeRow]:
    """Compare E[U(X_T)] of a base policy against perturbed variants.

    Every policy is backtested on the same simulated paths (common random
    numbers), so the dominance gaps come from paired differences, which are
    far tighter than the individual standard errors.  Policies are supplied
    as zero-argument factories so each chunk runs a fresh instance.
    """
    from .market import simulate_batch
    from .montecarlo import run_chunked
    from .wealth import run_backtest

    if u is None:
        u = log_utility()
    names = ["base"] + list(perturbation_factories)
    factories = {"base": base_factory, **perturbation_factories}

    def chunk(seed_seq, n_in_chunk):
        batch = simulate_batch(params, seed_seq, n_in_chunk)
        utilities = {}
        for name in names:
            ledger = run_backtest(batch, factories[name](), params, x0)
            x_T = np.maximum(ledger.terminal(), 1e-300)   # dead paths: log -> -inf guard
            utilities[name] = u.u(x_T)
        out = {f"u:{name}": utilities[name] for name in names}
        for name in names[1:]:
            out[f"diff:{name}"] = utilities["base"] - utilities[name]
        return out

    stats = run_chunked(n_paths, seed, chunk, chunk_size=chunk_size, workers=workers)

    rows = []
    base = stats["u:base"]
    rows.append(ProbeRow("base", base.n, base.mean, base.stderr))
    for name in names[1:]:
        m = stats[f"u:{name}"]
        dd = stats[f"diff:{name}"]
        rows.append(
            ProbeRow(
                policy=name,
                n_paths=m.n,
                mean_utility=m.mean,
                stderr=m.stderr,
                diff_vs_base=-dd.mean,          # negative when the base wins
                diff_stderr=dd.stderr,
            )
        )
    return rows
