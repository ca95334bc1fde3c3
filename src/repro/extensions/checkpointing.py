"""Checkpoint-interval optimization for spot jobs.

The paper treats the per-interruption recovery time ``t_r`` as a given
job property ("configured to save their data to a separate volume once
interrupted").  In practice ``t_r`` is *engineered* by checkpointing
(cf. Yi et al., "Monetary cost-aware checkpointing and migration on
Amazon cloud spot instances", referenced as [37]): checkpoint every
``τ`` hours at a cost of ``t_c`` per checkpoint, and an interruption
loses on average half a checkpoint interval of work plus a constant
restore time:

    t_r(τ) = t_restore + τ/2
    overhead(τ) = (t_s/τ)·t_c                   (time spent checkpointing)

This module closes the loop between checkpoint engineering and bidding:
for each candidate interval the effective job spec (inflated execution
time, induced ``t_r``) is re-optimized with Prop. 5, and the interval
with the lowest total expected cost wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.types import BidDecision, BidKind, JobSpec
from ..core.distributions import PriceDistribution
from ..errors import InfeasibleBidError
from .kernels import checkpoint_grid_kernel

__all__ = [
    "CheckpointPolicy",
    "conservative_cost",
    "best_capped_bid",
    "effective_job",
    "CheckpointPlan",
    "optimize_checkpoint_interval",
]


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint every ``interval`` hours, paying ``checkpoint_cost``
    hours per checkpoint and ``restore_time`` hours per resume."""

    interval: float
    checkpoint_cost: float = 10.0 / 3600.0
    restore_time: float = 10.0 / 3600.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval!r}")
        if self.checkpoint_cost < 0 or self.restore_time < 0:
            raise ValueError("checkpoint_cost and restore_time must be >= 0")

    @property
    def recovery_time(self) -> float:
        """Expected per-interruption recovery: restore + half an interval
        of lost work."""
        return self.restore_time + self.interval / 2.0


def effective_job(job: JobSpec, policy: CheckpointPolicy) -> JobSpec:
    """The job as the market sees it under a checkpoint policy.

    Execution time inflates by the checkpointing overhead
    ``(t_s/τ)·t_c`` and the recovery time becomes ``t_restore + τ/2``.
    """
    n_checkpoints = job.execution_time / policy.interval
    inflated = job.execution_time + n_checkpoints * policy.checkpoint_cost
    return JobSpec(
        execution_time=inflated,
        recovery_time=policy.recovery_time,
        slot_length=job.slot_length,
    )


def conservative_cost(
    dist: PriceDistribution, price: float, job: JobSpec
) -> float:
    """Φ_sp with a non-negative recovery count.

    Eq. 13 credits the run one recovery it never pays (its numerator is
    ``t_s − t_r``; at ``F(p) = 1`` it predicts a running time *below*
    the execution time).  For ordinary jobs ``t_r ≪ t_s`` and the quirk
    is negligible, but checkpoint optimization sweeps ``t_r`` up to
    hours, where the phantom credit would dominate.  This variant solves
    the same fixed point with recovery per interruption and no credit:

        running = t_s / (1 − (t_r/t_k)(1 − F(p)))

    and shares eq. 15's minimizer (the numerator is constant in ``p``).
    """
    accept = dist.cdf(price)
    if accept <= 0.0:
        return math.inf
    r = job.recovery_time / job.slot_length
    denom = 1.0 - r * (1.0 - accept)
    if denom <= 0.0:
        return math.inf
    running = job.execution_time / denom
    return running * dist.partial_expectation(price) / accept


@dataclass(frozen=True)
class CheckpointPlan:
    """The chosen interval with its induced job and bid."""

    policy: CheckpointPolicy
    job: JobSpec
    decision: BidDecision
    #: Expected cost under the non-negative-recovery accounting.
    conservative_expected_cost: float

    @property
    def total_expected_cost(self) -> float:
        return self.conservative_expected_cost


def _capped_candidates(
    dist: PriceDistribution, max_bid: Optional[float]
) -> "tuple[np.ndarray, float]":
    """Candidate bids at or below the cap (the cap is bid-policy, not
    interval-dependent, so one array serves every effective job)."""
    from ..core.persistent import candidate_prices

    cap = dist.upper if max_bid is None else min(max_bid, dist.upper)
    candidates = np.asarray(
        [float(p) for p in candidate_prices(dist, dist.lower) if p <= cap + 1e-15]
    )
    if candidates.size == 0:
        raise InfeasibleBidError(f"no candidate bids at or below {max_bid!r}")
    return candidates, cap


def best_capped_bid(
    dist: PriceDistribution, job: JobSpec, max_bid: Optional[float] = None
) -> BidDecision:
    """Minimize the conservative cost over candidate bids at or below
    ``max_bid`` (no cap when ``None``).

    A bid cap is how checkpointing becomes interesting: when the market's
    price ceiling is reachable, bidding it guarantees zero interruptions
    at nearly the mean price, so "never checkpoint, bid the ceiling" wins
    trivially.  Risk policy (bounding exposure to price spikes — the
    Section 8 risk-averseness discussion) caps the admissible bid, which
    re-introduces interruptions and hence the recovery-vs-overhead trade.
    """
    from ..core import costs as cost_fns

    candidates, cap = _capped_candidates(dist, max_bid)
    cost = checkpoint_grid_kernel(dist, candidates, [job])["cost"][0]
    best = int(np.argmin(cost))
    best_value = float(cost[best])
    if math.isinf(best_value):
        raise InfeasibleBidError(
            f"no feasible bid at or below {cap!r} for t_r={job.recovery_time!r}"
        )
    best_price = float(candidates[best])
    accept = dist.cdf(best_price)
    running = job.execution_time / (
        1.0 - (job.recovery_time / job.slot_length) * (1.0 - accept)
    )
    completion = running / accept if accept > 0 else math.inf
    return BidDecision(
        price=best_price,
        kind=BidKind.PERSISTENT,
        expected_cost=best_value,
        expected_completion_time=completion,
        expected_running_time=running,
        expected_interruptions=cost_fns.expected_interruptions(
            dist, best_price, completion, job.slot_length
        ),
        acceptance_probability=accept,
    )


def optimize_checkpoint_interval(
    dist: PriceDistribution,
    job: JobSpec,
    *,
    checkpoint_cost: float = 10.0 / 3600.0,
    restore_time: float = 10.0 / 3600.0,
    candidate_intervals: Optional[Sequence[float]] = None,
    max_bid: Optional[float] = None,
) -> CheckpointPlan:
    """Jointly choose the checkpoint interval and the (capped) bid.

    Short intervals tame ``t_r`` (cheaper, lower bids — Prop. 5) but
    inflate the execution time; long intervals do the reverse.  The
    default candidate grid spans seconds-scale to the full job length on
    a log scale.  ``max_bid`` caps the admissible bid (see
    :func:`best_capped_bid`); without it the ceiling bid dominates and
    the optimizer correctly reports "don't checkpoint".

    Raises :class:`InfeasibleBidError` when no candidate yields a finite
    expected cost.
    """
    if candidate_intervals is None:
        lo = max(60.0 / 3600.0, 2.0 * checkpoint_cost)
        hi = max(job.execution_time, lo * 2.0)
        candidate_intervals = [
            lo * (hi / lo) ** (k / 11.0) for k in range(12)
        ]

    # One batched kernel call scores every (interval, candidate bid)
    # cell; per-row and cross-row argmin first-occurrence ties reproduce
    # the original strict-inequality scans (earliest interval wins).
    policies: List[CheckpointPolicy] = []
    jobs: List[JobSpec] = []
    for interval in candidate_intervals:
        policy = CheckpointPolicy(
            interval=float(interval),
            checkpoint_cost=checkpoint_cost,
            restore_time=restore_time,
        )
        candidate = effective_job(job, policy)
        if candidate.execution_time <= candidate.recovery_time:
            continue
        policies.append(policy)
        jobs.append(candidate)
    if not jobs:
        raise InfeasibleBidError(
            "no checkpoint interval admits a feasible persistent bid"
        )
    try:
        candidates, _cap = _capped_candidates(dist, max_bid)
    except InfeasibleBidError:
        raise InfeasibleBidError(
            "no checkpoint interval admits a feasible persistent bid"
        ) from None
    cost = checkpoint_grid_kernel(dist, candidates, jobs)["cost"]
    row_best = cost.min(axis=1)
    if not np.isfinite(row_best).any():
        raise InfeasibleBidError(
            "no checkpoint interval admits a feasible persistent bid"
        )
    winner = int(np.argmin(np.where(np.isfinite(row_best), row_best, np.inf)))
    decision = best_capped_bid(dist, jobs[winner], max_bid)
    return CheckpointPlan(
        policy=policies[winner],
        job=jobs[winner],
        decision=decision,
        conservative_expected_cost=decision.expected_cost,
    )
