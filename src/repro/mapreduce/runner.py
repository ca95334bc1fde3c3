"""Run a MapReduce bidding plan against simulated spot markets.

The master and slaves generally use different instance types (Table 4),
so the runner drives **two** spot markets in lockstep — one per type,
each replaying its own price trace.  Per slot it:

1. steps both markets (new prices, instance launches/terminations),
2. submits the slave requests only once the master is actually running —
   the real EMR protocol: the cluster cannot start without its master,
3. restarts the master (a fresh one-time request at the same bid) if it
   is out-bid — rare by construction since Prop. 4 sizes the master bid,
   but modeled rather than assumed away; slave progress survives because
   persistent requests checkpoint to the save volume,
4. declares the job complete when every sub-job has finished *and* the
   master is up to collect results, then cancels the master.

Modeling simplification (documented): if the master is briefly down
mid-run, slaves continue executing their checkpointed sub-jobs; the
completion gate in step 4 still forces the wall-clock cost of the outage
onto the job.  This matches the paper's treatment, where the master bid
is chosen precisely so that such outages essentially never happen.

The on-demand baseline (Figure 7's comparison bar) is analytic: with
guaranteed availability there are no interruptions, so completion time
and cost follow directly from the workload.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from ..core.types import BidKind, MapReduceJobSpec, MapReducePlan
from ..errors import PlanError
from ..market.price_sources import TracePriceSource
from ..market.requests import RequestState
from ..market.simulator import SpotMarket
from ..traces.history import SpotPriceHistory
from .scheduler import MapReduceScheduler

__all__ = [
    "MapReduceRunResult",
    "TerminationReason",
    "run_plan_on_traces",
    "ondemand_baseline",
]


class TerminationReason(enum.Enum):
    """Why a simulated MapReduce run ended.

    ``completed=False`` collapses three very different endings — the
    master burning through its restart budget, the trace running out
    before the job finished, and a master bid so low the cluster never
    even started — that matter for diagnosing a plan.
    """

    COMPLETED = "completed"
    #: The master's (max_master_restarts+1)-th attempt was out-bid.
    RESTARTS_EXHAUSTED = "restarts_exhausted"
    #: The simulated slot budget ran out with slaves still working.
    BUDGET_EXHAUSTED = "budget_exhausted"
    #: The master never reached RUNNING, so slaves were never submitted.
    SLAVES_NEVER_SUBMITTED = "slaves_never_submitted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class MapReduceRunResult:
    """Observed outcome of one simulated MapReduce run."""

    completed: bool
    #: Wall-clock time from submission to the last sub-job finishing, hours.
    completion_time: float
    master_cost: float
    slave_cost: float
    slave_interruptions: int
    master_restarts: int
    #: How the run ended (``None`` only for legacy constructions).
    termination_reason: Optional[TerminationReason] = None

    @property
    def total_cost(self) -> float:
        return self.master_cost + self.slave_cost

    @property
    def master_cost_fraction(self) -> float:
        """Master cost over slave cost — Table 4 reports 10–25%."""
        if self.slave_cost <= 0.0:
            return math.inf
        return self.master_cost / self.slave_cost


def run_plan_on_traces(
    plan: MapReducePlan,
    master_history: SpotPriceHistory,
    slave_history: SpotPriceHistory,
    *,
    start_slot: int = 0,
    max_slots: Optional[int] = None,
    max_master_restarts: int = 50,
) -> MapReduceRunResult:
    """Execute ``plan`` against held-out master/slave price traces."""
    slot_length = plan.job.slot_length
    if master_history.slot_length != slot_length or slave_history.slot_length != slot_length:
        raise PlanError(
            "master/slave trace slot lengths must match the job's slot length"
        )
    available = min(
        master_history.n_slots - start_slot, slave_history.n_slots - start_slot
    )
    if available < 1:
        raise PlanError("start_slot leaves no future slots to simulate")
    budget = available if max_slots is None else min(max_slots, available)

    master_market = SpotMarket(
        TracePriceSource(master_history, start_slot=start_slot),
        slot_length=slot_length,
    )
    slave_market = SpotMarket(
        TracePriceSource(slave_history, start_slot=start_slot),
        slot_length=slot_length,
    )
    scheduler = MapReduceScheduler(job=plan.job)

    def submit_master() -> None:
        rid = master_market.submit(
            bid_price=plan.master_bid.price,
            work=math.inf,
            kind=BidKind.ONE_TIME,
            label=f"master#{len(scheduler.master_attempts)}",
        )
        scheduler.attach_master(rid)

    def submit_slaves() -> None:
        for sub in scheduler.sub_jobs:
            rid = slave_market.submit(
                bid_price=plan.slave_bid.price,
                work=sub.work,
                kind=BidKind.PERSISTENT,
                recovery_time=plan.job.recovery_time,
                label=f"slave-{sub.index}",
            )
            scheduler.attach_slave(sub.index, rid)

    submit_master()
    slaves_submit_slot: Optional[int] = None
    completed = False
    completion_time = math.nan
    reason = TerminationReason.BUDGET_EXHAUSTED
    for _step in range(budget):
        master_market.step()
        slave_market.step()

        if scheduler.master_failed(master_market):
            if scheduler.master_restarts >= max_master_restarts:
                reason = TerminationReason.RESTARTS_EXHAUSTED
                break
            submit_master()
            continue

        master_up = (
            scheduler.master_request_id is not None
            and master_market.request_state(scheduler.master_request_id)
            is RequestState.RUNNING
        )
        if slaves_submit_slot is None:
            if master_up:
                # The cluster starts only once its master is live.
                submit_slaves()
                slaves_submit_slot = slave_market.slot
            continue

        if scheduler.slaves_done(slave_market) and master_up:
            completed = True
            reason = TerminationReason.COMPLETED
            finish_times = [
                slave_market.outcome(sub.request_id).completion_time
                for sub in scheduler.sub_jobs
            ]
            # Sub-job completion times are relative to the slaves'
            # submission; rebase to the job's submission at slot 0.
            completion_time = slaves_submit_slot * slot_length + max(
                t for t in finish_times if t is not None
            )
            master_market.cancel(scheduler.master_request_id)
            break

    if slaves_submit_slot is None and not completed:
        reason = TerminationReason.SLAVES_NEVER_SUBMITTED
    master_cost = sum(
        master_market.outcome(rid).cost for rid in scheduler.master_attempts
    )
    # Sub-jobs are only attached to requests once the master comes up; a
    # master that never runs leaves them unsubmitted with zero cost.
    slave_cost = sum(
        slave_market.outcome(sub.request_id).cost
        for sub in scheduler.sub_jobs
        if sub.submitted
    )
    interruptions = sum(
        slave_market.outcome(sub.request_id).interruptions
        for sub in scheduler.sub_jobs
        if sub.submitted
    )
    return MapReduceRunResult(
        completed=completed,
        completion_time=completion_time,
        master_cost=master_cost,
        slave_cost=slave_cost,
        slave_interruptions=interruptions,
        master_restarts=scheduler.master_restarts,
        termination_reason=reason,
    )


def ondemand_baseline(
    plan_job: MapReduceJobSpec,
    master_ondemand: float,
    slave_ondemand: float,
) -> MapReduceRunResult:
    """The Figure 7 on-demand baseline for the same cluster shape.

    With guaranteed availability the wall-clock time is the per-slave
    share ``(t_s + t_o)/M`` and the bill is that time on ``M`` slave
    instances plus the master, all at on-demand rates.
    """
    if master_ondemand <= 0 or slave_ondemand <= 0:
        raise PlanError("on-demand prices must be positive")
    wall = plan_job.slaves_spec.per_instance_work
    master_cost = wall * master_ondemand
    slave_cost = wall * plan_job.num_slaves * slave_ondemand
    return MapReduceRunResult(
        completed=True,
        completion_time=wall,
        master_cost=master_cost,
        slave_cost=slave_cost,
        slave_interruptions=0,
        master_restarts=0,
        termination_reason=TerminationReason.COMPLETED,
    )
