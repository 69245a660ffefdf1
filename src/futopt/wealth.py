"""Self-financing wealth accounting over a market path.

The primitive bookkeeping identity is the cash form

    X_{n+1} = X_n + (1 - m) r X_n dt + P_n* diag(f) dF_n
              - 1/2 c* diag(f) |dP_n|

with positions P in contracts and slippage charged when the trade happens.
When positions come from weights, P_i = X k_i pi_i / C_i, the same step can
be written against the return decomposition,

    X_{n+1} = X_n (1 + (1 - m) r dt + pi_eff* (beta - c_tilde) dt
              + pi_eff* sigma dW),        pi_eff = k * pi,

and the two agree to rounding whenever the relative cost is finite.  Wealth
is admissible while nonnegative; a path whose wealth would go below zero is
absorbed at zero and stays there.

The backtest loop is bound by passes over path-sized rows, not by floating
point work, so it computes each quantity once per step and skips each mask
that selects no path, where np.where would return its input's bits; see
run_backtest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rows import _dot
from .errors import ModelError
from .filtering import KalmanSchedule
from .market import PathBatch
from .measure import advance_log_z, discount_and_density
from .params import MarketParams
from .strategies import Strategy, StrategyObs
from .trading import PositionBook, _relative_cost, contract_price, position_from_weights

__all__ = [
    "WealthLedger",
    "step_wealth",
    "step_wealth_cash",
    "run_backtest",
    "realized_monetary_vol",
]

#: The per-path event counts run_backtest keeps, by summary.json field name.
EVENTS = ("admissibility_violations", "clip_events", "cash_cost_fallbacks")


def step_wealth(
    X,
    pi: np.ndarray,
    beta: np.ndarray,
    c_tilde: np.ndarray,
    dW: np.ndarray,
    params: MarketParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the return-form recursion.

    pi is the effective weight vector (gearing already applied).  Returns
    (X_next, violated); wealth that would go negative is floored at zero
    and reported through the flag.
    """
    X = np.asarray(X, dtype=float)
    pi = np.asarray(pi, dtype=float)
    dt = params.delta_t
    drift = np.einsum("...i,...i->...", pi, np.asarray(beta, float) - np.asarray(c_tilde, float))
    noise = np.einsum("...i,ij,...j->...", pi, params.sigma, np.asarray(dW, float))
    X_next = X * (1.0 + (1.0 - params.m) * params.r * dt + drift * dt + noise)
    violated = X_next < 0
    return np.where(violated, 0.0, X_next), violated


def step_wealth_cash(
    X,
    P: np.ndarray,
    P_prev: np.ndarray,
    delta_F: np.ndarray,
    params: MarketParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the cash-form recursion with positions in contracts.

    The floor applies only when some wealth went below zero: the np.where
    would otherwise return X_next's own bits."""
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    dP = np.abs(P - np.asarray(P_prev, float))
    gains = _dot(P, params.f * np.asarray(delta_F, float))
    slippage = 0.5 * _dot(dP, params.c_spread * params.f)
    X_next = X + (1.0 - params.m) * params.r * params.delta_t * X + gains - slippage
    violated = X_next < 0
    if violated.any():
        X_next = np.where(violated, 0.0, X_next)
    return X_next, violated


@dataclass
class WealthLedger:
    """Backtest output: path 0's per-step record plus every path's terminal state.

    X and the book hold path 0 only, as a batch of one, so their size does
    not grow with the number of paths.  X_T, dead and events cover every
    path; events maps each name in EVENTS to (n_paths,) int counts: the
    step (at most one) whose wealth would have gone below zero, and the
    (step, asset) position clips and cash-cost fallbacks.  When run_backtest
    is asked for the state price density, it sets H_T and n_capped for every
    path, and gamma and H, path 0's discount factor and density over the
    grid, from the same step loop; otherwise they stay None.  Nothing else
    per path is kept: the loop reads the filter's estimates a row at a time.
    """

    t_grid: np.ndarray
    X: np.ndarray                     # (1, N + 1), path 0
    book: PositionBook                # (1, N, d) arrays, path 0
    X_T: np.ndarray                   # (n_paths,)
    dead: np.ndarray                  # (n_paths,) bool, absorbed at zero
    events: dict[str, np.ndarray]     # EVENTS name -> (n_paths,) int
    H_T: np.ndarray | None = None     # (n_paths,), gamma_N Z_N
    n_capped: int = 0                 # theta rows scaled back onto the cap
    gamma: np.ndarray | None = None   # (N + 1,)
    H: np.ndarray | None = None       # (N + 1,), gamma Z, path 0


def run_backtest(
    paths: PathBatch,
    strategy: Strategy,
    params: MarketParams,
    x0: float,
    beta_hat: np.ndarray | None = None,
    cap: np.ndarray | None = None,
    integer_contracts: bool = False,
    theta_max: float | None = None,
    p_cov0=None,
) -> WealthLedger:
    """Run a policy over simulated or ingested paths.

    beta_hat is the drift estimate the strategy sees, (n_paths, N + 1, d) as
    run_filter_batch(paths.delta_R(), params).beta_hat gives it: row n has
    seen returns only up to t_n, and the increment over [t_n, t_{n+1}] is
    revealed after the weights are committed.  When it is None and sigma is
    invertible, the rows come from KalmanSchedule(params, N, p_cov0)
    .estimates(paths.R), the same bits; with a singular sigma the strategy
    sees None.  Policies traded on one batch can share one estimate: the
    rows of F and beta_hat handed to the strategy are read-only.  The cash
    form is the primitive recursion; the relative cost per step is recorded
    for cross-checks.  A position X k pi / C that is not finite raises
    ModelError.

    The ledger keeps the full per-step record (X and the position book) for
    path 0 only, written a row per step, and for every path the terminal
    wealth X_T, the absorption flags and the event counts, added to once per
    step.  Step n reads row n of F, beta, dW and the filter's estimates:
    contiguous, with no copy, in a step-major batch.  Each step forms the
    trade P - P_prev and its size once, for the relative cost and path 0's
    cash cost (step_wealth_cash forms its own).  It zeroes absorbed paths'
    weights and positions only once some path is absorbed, replaces
    non-finite relative costs only when there are any, and counts
    violations, clips and cash-cost fallbacks only on steps that have them:
    each skipped call would return its input's bits or add zero.  No array
    handed to the strategy (F, C, X, P_prev, beta_hat) is written after it
    is handed over.

    Given theta_max (np.inf for no cap) and a batch with latent beta and
    dW, the loop also builds the terminal state price density H_T = gamma_N
    Z_N for every path, with theta_n the relative risk of beta_n net of the
    realized cost c_tilde_n, capped at theta_max; the ledger carries H_T,
    the number of capped rows, and path 0's gamma and H = gamma Z.  These
    are the values build_measure_state gives on the whole batch, without its
    (n_paths, N) histories; each step goes through measure.advance_log_z.
    """
    if x0 < 0:
        raise ModelError("initial wealth must be nonnegative")
    n_paths, n_grid, d = paths.F.shape
    n = n_grid - 1
    t_grid = paths.t_grid
    F_steps = paths.F.transpose(1, 0, 2)
    F_steps.flags.writeable = False

    if beta_hat is not None:
        if beta_hat.shape != paths.F.shape:
            raise ModelError(f"beta_hat must have the paths' shape {paths.F.shape}, got {beta_hat.shape}")
        estimates = beta_hat.transpose(1, 0, 2)[:n]   # the filter's own storage
        estimates.flags.writeable = False
    elif params.sigma_invertible():
        estimates = KalmanSchedule(params, n, p_cov0).estimates(paths.R)
    else:
        estimates = [None] * n

    X = np.full(n_paths, float(x0))
    dead = X <= 0
    any_dead = bool(dead.any())
    P_prev = np.zeros((n_paths, d))

    # Path 0's record, one row per step.
    X_hist = np.full(n + 1, X[0])
    Z_hist = np.ones(n + 1)
    book = PositionBook(*(np.zeros((1, n, d)) for _ in range(6)), clipped=np.zeros((1, n, d), dtype=bool))
    events = {name: np.zeros(n_paths, dtype=np.int64) for name in EVENTS}

    density = theta_max is not None and paths.beta is not None and paths.dW is not None
    if density:
        beta_lat, dW_steps = paths.beta.transpose(1, 0, 2), paths.dW.transpose(1, 0, 2)
    log_z, n_capped = np.zeros(n_paths), 0

    strategy.reset(n_paths, params)

    for i, b in enumerate(estimates):
        F_i = F_steps[i]
        try:
            C_i = contract_price(F_i, params.f)
        except ModelError as err:   # params guarantee f > 0, so a price is at fault
            j = int(np.argmax(np.any(F_i <= 0, axis=1)))
            raise ModelError(f"{err}: F = {F_i[j].tolist()} at step {i} on path {j}") from None
        obs = StrategyObs(
            n=i,
            t=float(t_grid[i]),
            F=F_i,
            C=C_i,
            X=X,
            P_prev=P_prev,
            beta_hat=b,
        )
        pi = np.asarray(strategy.weights(obs), dtype=float)
        if pi.shape != (n_paths, d):
            raise ModelError(f"strategy returned weights with shape {pi.shape}")
        if any_dead:
            pi = np.where(dead[:, None], 0.0, pi)

        P, clipped = position_from_weights(X, pi, C_i, params.k, cap, integer_contracts)
        if any_dead:
            P = np.where(dead[:, None], 0.0, P)
        if not np.isfinite(P).all():
            j = int(np.argmin(np.isfinite(P).all(axis=1)))
            raise ModelError(f"position X k pi / C is not finite at step {i} on path {j}: X = {X[j]:.6g}, "
                             f"k = {params.k.tolist()}, pi = {pi[j].tolist()}, C = {C_i[j].tolist()}")
        trade = P - P_prev
        dP = np.abs(trade)

        c_tilde, flagged = _relative_cost(dP, P, C_i, params)
        X_next, violated = step_wealth_cash(X, P, P_prev, F_steps[i + 1] - F_i, params)

        if violated.any():
            events["admissibility_violations"] += violated & ~dead
        if clipped.any():
            events["clip_events"] += np.count_nonzero(clipped, axis=1)
        if flagged.any():
            events["cash_cost_fallbacks"] += np.count_nonzero(flagged, axis=1)

        if density:
            c_net = c_tilde if np.isfinite(c_tilde).all() else np.nan_to_num(c_tilde, nan=0.0)
            _, capped = advance_log_z(log_z, beta_lat[i] - c_net, dW_steps[i], params, theta_max, i)
            n_capped += capped
            np.exp(log_z[:1], out=Z_hist[i + 1 : i + 2])

        X_hist[i + 1] = X_next[0]
        book.C[0, i] = C_i[0]
        book.pi[0, i] = pi[0]
        book.P[0, i] = P[0]
        book.trade[0, i] = trade[0]
        book.c_tilde[0, i] = c_tilde[0]
        book.cash_cost[0, i] = 0.5 * params.c_spread * params.f * dP[0]
        book.clipped[0, i] = clipped[0]

        dead |= X_next <= 0   # a violated path's wealth was floored to zero
        any_dead = bool(dead.any())
        X = X_next
        P_prev = np.where(dead[:, None], 0.0, P) if any_dead else P

    gamma, H = discount_and_density(params, Z_hist) if density else (None, None)
    return WealthLedger(
        t_grid=t_grid,
        X=X_hist[None],
        book=book,
        X_T=X,
        dead=dead,
        events=events,
        H_T=gamma[-1] * np.exp(log_z) if density else None,
        n_capped=n_capped,
        gamma=gamma,
        H=H,
    )


def realized_monetary_vol(ledger: WealthLedger, params: MarketParams, window: int = 20) -> float:
    """Annualized std of path 0's per-step position gains relative to wealth.

    The gain over step i, P_i* diag(f) dF_i, is recovered exactly from the
    ledger as the wealth change net of interest plus the slippage paid.
    """
    X, cash = ledger.X[0], ledger.book.cash_cost[0]
    n = cash.shape[0]
    interest = (1.0 - params.m) * params.r * params.delta_t * X[:n]
    gains = np.diff(X) - interest + cash.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rets = np.where(X[:n] > 0, gains / np.where(X[:n] > 0, X[:n], 1.0), 0.0)
    w = min(window, n)
    tail = rets[-w:]
    return float(tail.std(ddof=1) / np.sqrt(params.delta_t)) if w > 1 else 0.0
