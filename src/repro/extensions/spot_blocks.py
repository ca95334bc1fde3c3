"""Spot Blocks: fixed-duration spot instances (the product Amazon
launched two months after this paper appeared).

A Spot Block runs for a user-chosen duration of 1–6 hours at a price
fixed up front, immune to out-bidding for that window.  Amazon priced
blocks at a premium over the open spot market that grew with the
reserved duration (historically ~30–45% of on-demand for 1–6 h, vs
~10–15% for open spot).

This module adds blocks as a fourth purchasing option next to the
paper's three (on-demand, one-time spot, persistent spot) and provides
the decision rule a cost-minimizing but completion-sensitive user needs:

* :func:`block_price` — a calibrated block price for a duration, as a
  premium over the market's expected spot price that scales with the
  fraction of on-demand being insured against.
* :func:`compare_purchasing_options` — expected cost and completion
  time of all four options for one job, with the non-completion risk of
  the one-time option priced explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..core.distributions import PriceDistribution
from ..core.onetime import optimal_onetime_bid
from ..core.persistent import optimal_persistent_bid
from ..core.types import JobSpec
from ..errors import InfeasibleBidError, PlanError

__all__ = [
    "PurchasingOption",
    "block_price",
    "compare_purchasing_options",
]

#: Block durations Amazon offered, hours.
BLOCK_DURATIONS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def block_price(
    dist: PriceDistribution,
    ondemand_price: float,
    duration: float,
    *,
    base_premium: float = 0.05,
    premium_per_hour: float = 0.02,
) -> float:
    """A calibrated fixed price for a ``duration``-hour block.

    The provider charges the open market's mean spot price plus an
    insurance premium — a fraction of the gap up to on-demand that grows
    with the guaranteed duration (longer guarantees forgo more upside
    from price spikes).  Defaults land blocks at roughly 25–45% of
    on-demand for the catalog markets, matching the historical product.
    """
    if not duration > 0:
        raise PlanError(f"duration must be positive, got {duration!r}")
    if not ondemand_price > 0:
        raise PlanError(f"ondemand_price must be positive, got {ondemand_price!r}")
    mean_spot = dist.mean()
    premium_fraction = min(1.0, base_premium + premium_per_hour * duration)
    return min(
        ondemand_price,
        mean_spot + premium_fraction * (ondemand_price - mean_spot),
    )


@dataclass(frozen=True)
class PurchasingOption:
    """One row of the four-way comparison."""

    name: str
    expected_cost: float
    expected_completion_time: float
    #: Probability the job finishes without intervention.
    completion_probability: float
    #: Bid or fixed price, $/hour (on-demand price for on-demand).
    price: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name:12s} ${self.expected_cost:.4f}  "
            f"T={self.expected_completion_time:.2f}h  "
            f"P(done)={self.completion_probability:.2f}"
        )


def _onetime_completion_probability(
    dist: PriceDistribution, price: float, job: JobSpec
) -> float:
    """P(no out-bid for the whole execution) under i.i.d. slots."""
    accept = dist.cdf(price)
    slots = max(1, math.ceil(job.execution_time / job.slot_length))
    # Survive the slots after the launch slot.
    return accept ** max(0, slots - 1)


def compare_purchasing_options(
    dist: PriceDistribution,
    job: JobSpec,
    ondemand_price: float,
    *,
    block_durations: Optional[List[float]] = None,
) -> List[PurchasingOption]:
    """Expected cost/time/completion for all four purchasing options.

    Returns options sorted by expected cost.  The block option uses the
    shortest offered duration covering the execution time; jobs longer
    than the longest block fall back to chaining blocks end to end.
    """
    if not ondemand_price > 0:
        raise PlanError(f"ondemand_price must be positive, got {ondemand_price!r}")
    durations = sorted(block_durations or BLOCK_DURATIONS)
    for duration in durations:
        if not duration > 0:
            raise PlanError(f"duration must be positive, got {duration!r}")
    options: List[PurchasingOption] = [
        PurchasingOption(
            name="on-demand",
            expected_cost=ondemand_price * job.execution_time,
            expected_completion_time=job.execution_time,
            completion_probability=1.0,
            price=ondemand_price,
        )
    ]

    try:
        onetime = optimal_onetime_bid(dist, job, ondemand_price=ondemand_price)
        options.append(
            PurchasingOption(
                name="one-time",
                expected_cost=onetime.expected_cost,
                expected_completion_time=onetime.expected_completion_time,
                completion_probability=_onetime_completion_probability(
                    dist, onetime.price, job
                ),
                price=onetime.price,
            )
        )
    except InfeasibleBidError:
        pass

    try:
        persistent = optimal_persistent_bid(
            dist, job, ondemand_price=ondemand_price
        )
        options.append(
            PurchasingOption(
                name="persistent",
                expected_cost=persistent.expected_cost,
                expected_completion_time=persistent.expected_completion_time,
                completion_probability=1.0,  # always finishes eventually
                price=persistent.price,
            )
        )
    except InfeasibleBidError:
        pass

    # Spot block: shortest single block covering t_s, else chained
    # longest blocks with the remainder on the shortest block covering
    # it (each chain link re-priced; still guaranteed end to end).
    t_s = job.execution_time
    covering = [d for d in durations if d >= t_s]
    if covering:
        price = block_price(dist, ondemand_price, covering[0])
        cost = price * t_s
    else:
        longest = durations[-1]
        n_full, remainder = divmod(t_s, longest)
        cost = n_full * longest * block_price(dist, ondemand_price, longest)
        if remainder > 1e-12:
            tail = next(d for d in durations if d >= remainder)
            cost += remainder * block_price(dist, ondemand_price, tail)
        price = cost / t_s
    options.append(
        PurchasingOption(
            name="spot-block",
            expected_cost=float(cost),
            expected_completion_time=job.execution_time,
            completion_probability=1.0,
            price=float(price),
        )
    )
    return sorted(options, key=lambda o: o.expected_cost)
