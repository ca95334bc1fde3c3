"""Portfolio and risk-averse bid selection on the batched kernels.

Two first-class workloads the paper's cost model supports but never
spells out:

* :func:`optimal_portfolio_bid` — split one job between on-demand and
  persistent spot capacity.  A fraction ``w`` of the execution time is
  bought at the on-demand price (interruption-free, zero price
  variance); the rest runs under the Prop. 5 persistent model at a bid
  chosen jointly with ``w``.  The optimizer scans the full
  (fraction × bid) grid in one ``portfolio_grid`` kernel call and
  minimizes expected cost subject to an optional cap on the variance of
  the blended payment stream — the classic mean–variance trade-off, with
  on-demand playing the risk-free asset.
* :func:`cvar_bid` — risk-averse bid selection over *realized* sweep
  outcomes: each candidate bid is scored on rolling windows of the
  observed history through :func:`repro.sweep.engine.run_sweep`, and the
  bid minimizing the conditional value-at-risk (the mean of the worst
  ``1 − alpha`` tail of window costs) wins.  Unlike the expectation
  optimizers this is robust to the heavy upper tail of spot prices the
  paper documents in Section 4.

Both are reachable end to end: ``Strategy.PORTFOLIO`` / ``Strategy.CVAR``
in a :class:`~repro.core.types.DecisionRequest` route here from
:meth:`~repro.core.client.BiddingClient.respond`, the ``repro.serve``
daemon, and ``repro-bid sweep``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core import costs
from ..core.distcache import cached_distribution
from ..core.distributions import PriceDistribution
from ..core.persistent import candidate_prices
from ..core.types import (
    BidKind,
    CvarDecision,
    JobSpec,
    PortfolioDecision,
    Strategy,
)
from ..errors import InfeasibleBidError, PlanError
from ..traces.history import SpotPriceHistory
from .kernels import portfolio_grid_kernel

__all__ = [
    "portfolio_frontier",
    "optimal_portfolio_bid",
    "cvar_from_costs",
    "cvar_bid",
]

#: On-demand fractions the portfolio optimizer scans by default: 33
#: evenly spaced points on [0, 1].
ONDEMAND_FRACTIONS: Tuple[float, ...] = tuple(np.linspace(0.0, 1.0, 33).tolist())


def portfolio_frontier(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    ondemand_price: float,
    ondemand_fractions: Sequence[float] = ONDEMAND_FRACTIONS,
    candidates: Optional[Sequence[float]] = None,
) -> Dict[str, np.ndarray]:
    """The full mean–variance surface of on-demand/spot splits.

    Returns ``{"fractions", "candidates", "cost", "variance"}`` with
    ``cost`` and ``variance`` shaped ``(n_fractions, n_candidates)``,
    evaluated through the batched
    :func:`~repro.extensions.kernels.portfolio_grid_kernel`.
    Infeasible cells (spot work not exceeding the recovery time, or a
    bid violating eq. 14) hold ``inf``.
    """
    fractions = np.asarray(ondemand_fractions, dtype=float)
    if fractions.ndim != 1 or fractions.size == 0:
        raise PlanError("ondemand_fractions must be a non-empty 1-D grid")
    if float(fractions.min()) < 0.0 or float(fractions.max()) > 1.0:
        raise PlanError("ondemand_fractions must lie within [0, 1]")
    cand = (
        candidate_prices(dist, dist.lower)
        if candidates is None
        else np.asarray(candidates, dtype=float)
    )
    grid = portfolio_grid_kernel(
        dist,
        cand,
        job,
        ondemand_price=ondemand_price,
        ondemand_fractions=fractions,
    )
    return {
        "fractions": fractions,
        "candidates": cand,
        "cost": grid["cost"],
        "variance": grid["variance"],
    }


def optimal_portfolio_bid(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    ondemand_price: float,
    max_variance: Optional[float] = None,
    ondemand_fractions: Sequence[float] = ONDEMAND_FRACTIONS,
) -> PortfolioDecision:
    """Jointly choose the on-demand fraction and the spot bid.

    Minimizes the blended expected cost over the (fraction × bid) grid,
    keeping only cells whose conditional price variance respects
    ``max_variance`` (``None`` disables the cap).  Ties prefer the
    smallest on-demand fraction, then the lowest bid.  The all-on-demand
    column is always feasible, so a cap of ``0`` degenerates to pure
    on-demand rather than raising.
    """
    if max_variance is not None and not (
        max_variance >= 0.0 and math.isfinite(max_variance)
    ):
        raise PlanError(
            f"max_variance must be non-negative and finite, got {max_variance!r}"
        )
    frontier = portfolio_frontier(
        dist,
        job,
        ondemand_price=ondemand_price,
        ondemand_fractions=ondemand_fractions,
    )
    fractions = frontier["fractions"]
    cand = frontier["candidates"]
    cost = frontier["cost"]
    variance = frontier["variance"]
    eligible = np.isfinite(cost)
    if max_variance is not None:
        eligible &= variance <= max_variance
    masked = np.where(eligible, cost, np.inf)
    flat = int(np.argmin(masked))
    i, j = divmod(flat, masked.shape[1])
    best_cost = float(masked[i, j])
    if math.isinf(best_cost):
        raise InfeasibleBidError(
            f"no on-demand/spot split satisfies "
            f"Var(paid price) <= {max_variance!r} with finite expected cost"
        )
    w = float(fractions[i])
    if w >= 1.0:
        return PortfolioDecision(
            price=float(ondemand_price),
            kind=BidKind.PERSISTENT,
            expected_cost=best_cost,
            expected_completion_time=job.execution_time,
            expected_running_time=job.execution_time,
            expected_interruptions=0.0,
            acceptance_probability=1.0,
            spot_fraction=0.0,
            price_variance=0.0,
        )
    price = float(cand[j])
    spot_job = replace(job, execution_time=(1.0 - w) * job.execution_time)
    od_hours = w * job.execution_time
    spot_completion = costs.persistent_completion_time(dist, price, spot_job)
    spot_running = costs.persistent_running_time(dist, price, spot_job)
    interruptions = (
        costs.expected_interruptions(
            dist, price, spot_completion, job.slot_length
        )
        if math.isfinite(spot_completion)
        else math.inf
    )
    # The legs run sequentially (one logical job), so expected times add.
    return PortfolioDecision(
        price=price,
        kind=BidKind.PERSISTENT,
        expected_cost=best_cost,
        expected_completion_time=od_hours + spot_completion,
        expected_running_time=od_hours + spot_running,
        expected_interruptions=interruptions,
        acceptance_probability=dist.cdf(price),
        spot_fraction=1.0 - w,
        price_variance=float(variance[i, j]),
    )


def cvar_from_costs(values: Sequence[float], alpha: float) -> float:
    """CVaR_alpha of a cost sample: the mean of the worst ``1 − alpha``
    fraction (at least one observation, so ``alpha → 1`` gives the max)."""
    if not 0.0 < alpha < 1.0:
        raise PlanError(f"alpha must be within (0, 1), got {alpha!r}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise PlanError("need a non-empty 1-D cost sample")
    k = max(1, int(math.ceil((1.0 - alpha) * arr.size)))
    tail = np.sort(arr)[-k:]
    return float(tail.mean())


def cvar_bid(
    history: SpotPriceHistory,
    job: JobSpec,
    *,
    alpha: float = 0.95,
    bids: Optional[Sequence[float]] = None,
    n_windows: int = 16,
    ondemand_price: Optional[float] = None,
) -> CvarDecision:
    """Pick the bid minimizing the CVaR of realized window costs.

    Each candidate bid is swept as a persistent request across
    ``n_windows`` rolling windows of the observed history (windows start
    at evenly spaced offsets over the first half of the trace, so every
    window keeps at least half the data ahead of it) in a single
    :func:`repro.sweep.engine.run_sweep` call.  A window the job does
    not finish is penalized with an on-demand rerun
    (``ondemand_price · t_s``) when ``ondemand_price`` is given, or an
    infinite cost otherwise — bids that strand any window are then
    ineligible.  Ties prefer the lowest bid.
    """
    from ..sweep.engine import run_sweep

    if not 0.0 < alpha < 1.0:
        raise PlanError(f"alpha must be within (0, 1), got {alpha!r}")
    windows = int(n_windows)
    if windows < 1:
        raise PlanError(f"n_windows must be >= 1, got {n_windows!r}")
    dist = cached_distribution(history)
    if bids is None:
        # A ~64-level quantile ladder of the observed prices: dense where
        # the mass is, sparse in the tail, always including the support top.
        levels = [dist.ppf(float(q)) for q in np.linspace(1.0 / 64.0, 1.0, 64)]
        bid_grid = np.unique(np.asarray(levels, dtype=float))
    else:
        bid_grid = np.unique(np.asarray(bids, dtype=float))
        if bid_grid.ndim != 1 or bid_grid.size == 0:
            raise PlanError("bids must be a non-empty 1-D grid")
    starts = [(j * (history.n_slots // 2)) // windows for j in range(windows)]
    report = run_sweep(
        [history] * windows,
        bid_grid,
        job,
        strategy=Strategy.PERSISTENT,
        start_slots=starts,
    )
    penalty = (
        math.inf if ondemand_price is None
        else float(ondemand_price) * job.execution_time
    )
    realized = np.where(report.completed, report.cost, report.cost + penalty)
    cvar = np.array(
        [cvar_from_costs(realized[:, b], alpha) for b in range(bid_grid.size)]
    )
    best = int(np.argmin(cvar))
    best_cvar = float(cvar[best])
    if math.isinf(best_cvar):
        raise InfeasibleBidError(
            f"every candidate bid leaves incomplete windows in the "
            f"{1.0 - alpha:.3g} tail; pass ondemand_price to price the "
            f"rerun fallback"
        )
    price = float(bid_grid[best])
    done = np.asarray(report.completed[:, best], dtype=bool)
    completion = (
        float(report.completion_time[:, best][done].mean()) if done.any() else None
    )
    return CvarDecision(
        price=price,
        kind=BidKind.PERSISTENT,
        expected_cost=float(realized[:, best].mean()),
        expected_completion_time=completion,
        expected_running_time=float(report.running_time[:, best].mean()),
        expected_interruptions=float(report.interruptions[:, best].mean()),
        acceptance_probability=dist.cdf(price),
        alpha=alpha,
        cvar=best_cvar,
        n_windows=windows,
    )
