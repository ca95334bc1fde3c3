"""Optimal bidding for persistent spot requests (Section 5.2, Prop. 5).

A persistent request is resubmitted after every interruption, so the job
always finishes eventually; the bid price trades the per-hour price paid
against interruption recovery time.  The expected cost

    Φ_sp(p) = T·F(p) · E[π | π ≤ p]                       (eq. 15)

first decreases and then increases in ``p`` when the price PDF is
decreasing, and its minimizer solves ``ψ(p) = t_k/t_r − 1`` (Prop. 5,
eq. 16).  This module provides both solution paths:

* ``method="scan"`` — exact minimization over the discrete candidate set
  (the unique observed prices for an ECDF, or a dense grid otherwise).
  This makes no shape assumptions and is the default for empirical data.
* ``method="psi"`` — root-solve the first-order condition, matching the
  paper's closed form.  Valid when the PDF is monotonically decreasing.

Both agree (to grid resolution) whenever Prop. 5's hypothesis holds; the
test suite checks this against analytic distributions.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..errors import InfeasibleBidError
from . import costs
from .distributions import PriceDistribution
from .types import BidDecision, BidKind, JobSpec

__all__ = [
    "psi_target",
    "optimal_persistent_bid",
    "solve_psi_bid",
    "minimize_cost_over_candidates",
    "candidate_prices",
]

#: Number of grid points used when scanning a continuous distribution.
_GRID_POINTS = 2048


def psi_target(job: JobSpec) -> float:
    """The right-hand side of eq. 16: ``t_k/t_r − 1``.

    Infinite when the job recovers instantly (``t_r == 0``), in which case
    interruptions are free and the cheapest bid wins.
    """
    if job.recovery_time == 0.0:
        return math.inf
    return job.slot_length / job.recovery_time - 1.0


def _feasible_lower_bound(dist: PriceDistribution, job: JobSpec) -> float:
    """Lowest bid satisfying the interruptibility condition (eq. 14).

    If ``t_r < t_k`` every bid is feasible (the paper's observation after
    eq. 14); otherwise the bid must reach the quantile ``1 − t_k/t_r``.
    """
    if job.recovery_time < job.slot_length:
        return dist.lower
    quantile = 1.0 - job.slot_length / job.recovery_time
    return dist.ppf(quantile)


def candidate_prices(dist: PriceDistribution, low: float) -> np.ndarray:
    """Bid prices worth evaluating, restricted to ``[low, upper]``.

    Discrete distributions contribute their atoms; continuous ones a
    dense grid.  Shared by the optimizers here and by the risk-aware
    extensions.
    """
    candidates = dist.candidate_bids()
    if candidates is None:
        candidates = np.linspace(dist.lower, dist.upper, _GRID_POINTS)
    mask = candidates >= low - 1e-15
    kept = candidates[mask]
    if kept.size == 0:
        kept = np.asarray([dist.upper])
    return kept


def minimize_cost_over_candidates(
    dist: PriceDistribution,
    job: JobSpec,
    cost_fn: Callable[[PriceDistribution, float, JobSpec], float],
) -> float:
    """Return the candidate bid minimizing ``cost_fn``; ties → lowest price.

    Distributions exposing the vectorized pair ``cdf_array`` /
    ``partial_expectation_array`` (the empirical ECDF, the equilibrium
    model) are scanned in one vectorized pass through eq. 15's closed
    form; others fall back to a scalar loop over a dense grid.
    """
    low = _feasible_lower_bound(dist, job)
    candidates = candidate_prices(dist, low)

    if hasattr(dist, "cdf_array") and hasattr(dist, "partial_expectation_array"):
        accept = dist.cdf_array(candidates)
        below = dist.partial_expectation_array(candidates)
        r = job.recovery_time / job.slot_length
        denom = 1.0 - r * (1.0 - accept)
        with np.errstate(divide="ignore", invalid="ignore"):
            running = (job.execution_time - job.recovery_time) / denom
            cost = running * below / accept
        cost = np.where((denom <= 0) | (accept <= 0), np.inf, cost)
    else:
        cost = np.asarray([cost_fn(dist, float(p), job) for p in candidates])

    finite = np.isfinite(cost)
    if not finite.any():
        raise InfeasibleBidError(
            f"no feasible bid price: recovery time t_r={job.recovery_time:.6g}h "
            f"violates eq. 14 at every price in [{dist.lower:.6g}, {dist.upper:.6g}]"
        )
    best = int(np.argmin(np.where(finite, cost, np.inf)))
    return float(candidates[best])


def solve_psi_bid(dist: PriceDistribution, job: JobSpec) -> Optional[float]:
    """Solve the first-order condition ``ψ(p) = t_k/t_r − 1`` (eq. 16).

    Returns ``None`` when no sign change is bracketed (e.g. the optimum is
    at a support boundary, or the PDF is not decreasing so ψ is not
    monotone).  Callers should then fall back to a scan.
    """
    from scipy import optimize

    target = psi_target(job)
    if math.isinf(target):
        return None
    low = max(_feasible_lower_bound(dist, job), dist.lower)

    def excess(p: float) -> float:
        if dist.cdf(p) <= 0.0:
            # Below the support ψ is degenerate; exclude from brackets.
            return math.nan
        value = costs.psi(dist, p)
        if math.isinf(value):
            return math.inf
        return value - target

    # Bracket the root on a coarse grid before refining with brentq:
    # ψ − target goes from positive (cheap bids, where avoiding even
    # cheap interruptions is worth a higher price) to negative as p
    # rises past the optimum (ψ decreases through the target).
    grid = np.linspace(low, dist.upper, 256)
    values = [excess(float(p)) for p in grid]
    for i in range(len(grid) - 1):
        a, b = values[i], values[i + 1]
        if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            return float(grid[i])
        if a * b < 0.0:
            return float(
                optimize.brentq(excess, float(grid[i]), float(grid[i + 1]), xtol=1e-12)
            )
    return None


def optimal_persistent_bid(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    ondemand_price: Optional[float] = None,
    method: str = "auto",
) -> BidDecision:
    """Solve eq. 15 and return the optimal persistent bid.

    Parameters
    ----------
    dist:
        The predicted spot-price distribution.
    job:
        Job with ``execution_time`` (t_s), ``recovery_time`` (t_r) and
        ``slot_length`` (t_k).  Requires ``t_s > t_r``.
    ondemand_price:
        When given, enforce ``Φ_sp(p*) ≤ t_s·π̄`` (eq. 15's first
        constraint).
    method:
        ``"auto"``/``"scan"`` — exact candidate scan (default);
        ``"psi"`` — Prop. 5's first-order condition with a scan fallback.

    Raises
    ------
    InfeasibleBidError
        If eq. 14 fails at every admissible price, or the best spot bid
        still costs more than on demand.
    """
    if method not in {"auto", "scan", "psi"}:
        raise ValueError(f"unknown method {method!r}; use 'auto', 'scan' or 'psi'")
    if job.execution_time <= job.recovery_time:
        raise InfeasibleBidError(
            f"job with t_s={job.execution_time:.6g}h <= t_r={job.recovery_time:.6g}h "
            "cannot make progress between interruptions"
        )

    price: Optional[float] = None
    if method == "psi":
        price = solve_psi_bid(dist, job)
    if price is None:
        if job.recovery_time == 0.0:
            # Interruptions are free: the cheapest bid minimizes eq. 15.
            price = dist.lower
        else:
            price = minimize_cost_over_candidates(dist, job, costs.persistent_cost)

    expected_cost = costs.persistent_cost(dist, price, job)
    if math.isinf(expected_cost):
        raise InfeasibleBidError(
            f"persistent bid at {price:.6g} has unbounded expected cost "
            "(interruptibility condition eq. 14 violated)"
        )
    if ondemand_price is not None:
        ceiling = costs.ondemand_cost(ondemand_price, job.execution_time)
        if expected_cost > ceiling * (1.0 + 1e-12):
            raise InfeasibleBidError(
                f"expected persistent spot cost {expected_cost:.6g} exceeds "
                f"the on-demand cost {ceiling:.6g}; run on demand instead"
            )

    completion = costs.persistent_completion_time(dist, price, job)
    running = costs.persistent_running_time(dist, price, job)
    interruptions = (
        costs.expected_interruptions(dist, price, completion, job.slot_length)
        if math.isfinite(completion)
        else math.inf
    )
    return BidDecision(
        price=price,
        kind=BidKind.PERSISTENT,
        expected_cost=expected_cost,
        expected_completion_time=completion,
        expected_running_time=running,
        expected_interruptions=interruptions,
        acceptance_probability=dist.cdf(price),
    )
