"""Risk-averse bidding (Section 8, "Risk-averseness").

The paper's strategies minimize *expected* cost; Section 8 sketches two
risk-aware refinements, both implemented here:

* :func:`variance_bounded_bid` — minimize expected cost subject to an
  upper bound on the per-hour price variance the job is exposed to
  (``Var(π | π <= p)``).  Lower bids condition on a narrower price range
  and hence lower variance, so the constraint effectively caps the bid.
* :func:`deadline_chance_bid` — choose the cheapest bid such that the
  probability of missing a completion deadline is below a threshold,
  using a normal approximation for the number of accepted slots within
  the deadline (a persistent job completes once it accumulates enough
  running slots).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import stats

from ..core import costs
from ..core.distributions import PriceDistribution
from ..core.persistent import candidate_prices, minimize_cost_over_candidates
from ..core.types import BidDecision, BidKind, JobSpec
from ..errors import InfeasibleBidError
from .kernels import deadline_scan_kernel, risk_scan_kernel

__all__ = [
    "conditional_price_variance",
    "variance_bounded_bid",
    "deadline_miss_probability",
    "deadline_chance_bid",
]


def conditional_price_variance(dist: PriceDistribution, price: float) -> float:
    """``Var(π | π <= price)`` — the paid-price variance at a bid.

    Computed from the first two conditional moments; the second moment is
    integrated numerically unless the distribution provides
    ``partial_second_moment`` (the empirical class does, via its sorted
    arrays).
    """
    accept = dist.cdf(price)
    if accept <= 0.0:
        raise InfeasibleBidError(
            f"bid {price!r} is never accepted; conditional variance undefined"
        )
    mean = dist.partial_expectation(price) / accept

    second_moment_fn = getattr(dist, "partial_second_moment", None)
    if second_moment_fn is not None:
        second = second_moment_fn(price) / accept
    else:
        from scipy import integrate

        hi = min(price, dist.upper)
        raw, _err = integrate.quad(
            lambda x: x * x * dist.pdf(x), dist.lower, hi, limit=200
        )
        second = raw / accept
    return max(0.0, second - mean * mean)


def variance_bounded_bid(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    max_variance: float,
    ondemand_price: Optional[float] = None,
) -> BidDecision:
    """Cheapest-expected-cost persistent bid with bounded price variance.

    Scans the candidate bids, keeps those with
    ``Var(π | π <= p) <= max_variance``, and minimizes Φ_sp over the
    survivors.  Raises :class:`InfeasibleBidError` when no bid satisfies
    both the variance bound and eq. 14.

    The scan runs through the batched
    :func:`~repro.extensions.kernels.risk_scan_kernel`; ``argmin``
    first-occurrence ties reproduce the original loop's
    strict-inequality scan exactly.
    """
    if max_variance < 0:
        raise ValueError(f"max_variance must be non-negative, got {max_variance!r}")
    candidates = candidate_prices(dist, dist.lower)
    scan = risk_scan_kernel(dist, candidates, job)
    eligible = (scan["accept"] > 0.0) & (scan["variance"] <= max_variance)
    masked_cost = np.where(eligible, scan["cost"], np.inf)
    best = int(np.argmin(masked_cost))
    best_cost = float(masked_cost[best])
    if math.isinf(best_cost):
        raise InfeasibleBidError(
            f"no bid satisfies Var(π|π<=p) <= {max_variance!r} with finite cost"
        )
    best_price = float(candidates[best])
    if ondemand_price is not None:
        ceiling = costs.ondemand_cost(ondemand_price, job.execution_time)
        if best_cost > ceiling * (1.0 + 1e-12):
            raise InfeasibleBidError(
                f"variance-bounded cost {best_cost:.6g} exceeds on-demand "
                f"cost {ceiling:.6g}"
            )
    completion = costs.persistent_completion_time(dist, best_price, job)
    return BidDecision(
        price=best_price,
        kind=BidKind.PERSISTENT,
        expected_cost=best_cost,
        expected_completion_time=completion,
        expected_running_time=costs.persistent_running_time(dist, best_price, job),
        expected_interruptions=costs.expected_interruptions(
            dist, best_price, completion, job.slot_length
        ),
        acceptance_probability=dist.cdf(best_price),
    )


def deadline_miss_probability(
    dist: PriceDistribution, price: float, job: JobSpec, deadline: float
) -> float:
    """P(completion time > deadline) for a persistent bid, approximately.

    Within ``deadline`` there are ``n = deadline/t_k`` i.i.d. slots, each
    accepted with probability ``F(p)``.  The job finishes if the accepted
    slots cover the execution time plus expected recovery overhead; the
    binomial count is approximated by a normal (fine for n in the
    hundreds, as with 5-minute slots and multi-hour deadlines).
    """
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline!r}")
    accept = dist.cdf(price)
    if accept <= 0.0:
        return 1.0
    n = deadline / job.slot_length
    needed_running = costs.persistent_running_time(dist, price, job)
    if math.isinf(needed_running):
        return 1.0
    needed_slots = needed_running / job.slot_length
    mean = n * accept
    var = n * accept * (1.0 - accept)
    if var <= 0.0:
        return 0.0 if mean >= needed_slots else 1.0
    return float(stats.norm.sf((mean - needed_slots) / math.sqrt(var)))


def deadline_chance_bid(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    deadline: float,
    miss_probability: float = 0.05,
    ondemand_price: Optional[float] = None,
) -> BidDecision:
    """Cheapest persistent bid meeting a completion-deadline chance
    constraint: ``P(T > deadline) <= miss_probability`` (Section 8).

    Since the miss probability decreases with the bid price while the
    expected cost increases (above the unconstrained optimum), the
    solution is the unconstrained optimum if it already meets the
    constraint, else the lowest bid that does.
    """
    if not 0.0 < miss_probability < 1.0:
        raise ValueError(
            f"miss_probability must be in (0, 1), got {miss_probability!r}"
        )
    candidates = candidate_prices(dist, dist.lower)
    scan = deadline_scan_kernel(dist, candidates, job, deadline)
    feasible = scan["miss"] <= miss_probability
    if not feasible.any():
        raise InfeasibleBidError(
            f"no bid meets P(T > {deadline!r}h) <= {miss_probability!r}; "
            "use an on-demand instance for hard deadlines (Section 8)"
        )
    # Candidates ascend, so the first feasible one is the price floor.
    floor_price = float(candidates[int(np.argmax(feasible))])
    unconstrained = minimize_cost_over_candidates(dist, job, costs.persistent_cost)
    price = max(floor_price, unconstrained)
    expected_cost = costs.persistent_cost(dist, price, job)
    if ondemand_price is not None:
        ceiling = costs.ondemand_cost(ondemand_price, job.execution_time)
        if expected_cost > ceiling * (1.0 + 1e-12):
            raise InfeasibleBidError(
                f"deadline-feasible cost {expected_cost:.6g} exceeds on-demand "
                f"cost {ceiling:.6g}"
            )
    completion = costs.persistent_completion_time(dist, price, job)
    return BidDecision(
        price=price,
        kind=BidKind.PERSISTENT,
        expected_cost=expected_cost,
        expected_completion_time=completion,
        expected_running_time=costs.persistent_running_time(dist, price, job),
        expected_interruptions=costs.expected_interruptions(
            dist, price, completion, job.slot_length
        ),
        acceptance_probability=dist.cdf(price),
    )
