"""Figure 4: an example persistent job's running timeline.

The paper illustrates a day of r3.xlarge prices with a persistent bid at
p = 0.0323: the job runs while the price is at or below the bid, idles
during excursions above it, and pays one recovery time per interruption,
so ``T·F(p) = 2·t_r + t_s`` for the pictured two-interruption run.  This
experiment reproduces the figure as data: the price series, the bid, the
run/idle segments, and the eq. 13 accounting identity checked against
the simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..constants import seconds
from ..core.client import BiddingClient
from ..core.types import DecisionRequest, JobSpec, Strategy
from ..market.events import EventKind
from ..market.price_sources import TracePriceSource
from ..market.simulator import JobOutcome, SpotMarket
from ..core.types import BidKind
from ..traces.catalog import get_instance_type
from ..traces.generator import generate_renewal_history
from .common import ExperimentConfig, FULL_CONFIG, history_trace

__all__ = ["Fig4Result", "run"]


@dataclass(frozen=True)
class Fig4Result:
    instance_type: str
    bid_price: float
    prices: Tuple[float, ...]
    slot_length: float
    #: (start_hour, end_hour, state) segments, state in {"run", "idle"}.
    segments: Tuple[Tuple[float, float, str], ...]
    outcome: JobOutcome
    job: JobSpec

    @property
    def accounting_residual(self) -> float:
        """Eq. 13's identity on the realized run:
        running time − (interruptions·t_r + t_s), ideally ~0."""
        expected_running = (
            self.outcome.interruptions * self.job.recovery_time
            + self.job.execution_time
        )
        return self.outcome.running_time - expected_running

    def ascii_timeline(self, width: int = 72) -> str:
        """A coarse one-line rendering: '#' running, '.' idle, ' ' done."""
        if not self.segments:
            return ""
        horizon = max(end for _s, end, _k in self.segments)
        chars = [" "] * width
        for start, end, state in self.segments:
            a = int(start / horizon * (width - 1))
            b = max(a + 1, int(end / horizon * (width - 1)))
            for i in range(a, min(b, width)):
                chars[i] = "#" if state == "run" else "."
        return "".join(chars)


def run(config: ExperimentConfig = FULL_CONFIG) -> Fig4Result:
    """Replay a persistent job over one day of sticky r3.xlarge prices."""
    itype = get_instance_type("r3.xlarge")
    history = history_trace(itype, config, 4)
    client = BiddingClient(history, ondemand_price=itype.on_demand_price)
    job = JobSpec(
        execution_time=1.0, recovery_time=seconds(30), slot_length=config.slot_length
    )
    decision = client.respond(
        DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
    ).decision

    # The paper picked an illustrative day whose run shows interruptions
    # (two, in their Figure 4).  Search a handful of candidate spiky days
    # deterministically and keep the first whose run is interrupted at
    # least twice, falling back to the last candidate.
    day = None
    market = None
    rid = None
    outcome = None
    for attempt in range(48):
        rng = config.rng(4, attempt)
        candidate = generate_renewal_history(
            itype,
            days=3.0,
            rng=rng,
            floor_episode_hours=0.4,
            tail_episode_hours=0.5,
            slot_length=config.slot_length,
        )
        market = SpotMarket(TracePriceSource(candidate), slot_length=config.slot_length)
        rid = market.submit(
            bid_price=decision.price,
            work=job.execution_time,
            kind=BidKind.PERSISTENT,
            recovery_time=job.recovery_time,
        )
        market.run_until_done(max_slots=candidate.n_slots)
        outcome = market.outcome(rid)
        day = candidate
        if outcome.completed and outcome.interruptions >= 2:
            break

    # Rebuild run/idle segments from the event log.
    segments: List[Tuple[float, float, str]] = []
    state = "idle"
    seg_start = 0.0
    for event in market.log.for_request(rid):
        if event.kind in (EventKind.INSTANCE_LAUNCHED, EventKind.INSTANCE_RESUMED):
            if event.time_hours > seg_start:
                segments.append((seg_start, event.time_hours, "idle"))
            state, seg_start = "run", event.time_hours
        elif event.kind in (EventKind.INSTANCE_OUTBID, EventKind.JOB_COMPLETED):
            segments.append((seg_start, event.time_hours, "run"))
            state, seg_start = "idle", event.time_hours
    prices_shown = tuple(
        float(p) for p in day.prices[: int(outcome.submitted_slot + (outcome.completion_time or 0) / config.slot_length) + 2]
    )
    return Fig4Result(
        instance_type=itype.name,
        bid_price=decision.price,
        prices=prices_shown,
        slot_length=config.slot_length,
        segments=tuple(segments),
        outcome=outcome,
        job=job,
    )
