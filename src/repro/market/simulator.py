"""The spot-market simulator (the repo's EC2 substitute).

:class:`SpotMarket` runs the discrete-time market of Section 3.2: each
slot the price source announces a spot price, bids at or above it run,
running instances below it are terminated (one-time requests die,
persistent requests go back to pending), and billing accrues for running
time only.  The simulator is deliberately single-threaded and
deterministic: all randomness lives in the price source.

Typical use::

    market = SpotMarket(TracePriceSource(history))
    handle = market.submit(bid_price=0.034, work=1.0,
                           kind=BidKind.PERSISTENT, recovery_time=30/3600)
    market.run_until_done()
    outcome = market.outcome(handle)
    print(outcome.cost, outcome.completion_time)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..constants import DEFAULT_SLOT_HOURS
from ..core.types import BidKind
from ..errors import MarketError
from .billing import BillingPolicy, PerSlotBilling
from .events import EventKind, EventLog, MarketEvent
from .instance import advance_request, cancel_request
from .outcomes import OutcomeStats
from .price_sources import PriceSource
from .requests import RequestState, SpotRequest

__all__ = ["JobOutcome", "SpotMarket"]

#: Default safety limit on simulated slots (one year of 5-minute slots).
_DEFAULT_MAX_SLOTS = 105_120


@dataclass(frozen=True)
class JobOutcome:
    """Immutable summary of one finished (or failed) request."""

    request_id: int
    label: str
    state: RequestState
    bid_price: float
    kind: BidKind
    cost: float
    #: Slot at which the request entered the market.
    submitted_slot: int
    #: Wall-clock from submission to completion (None if not completed).
    completion_time: Optional[float]
    running_time: float
    idle_time: float
    recovery_time_used: float
    interruptions: int

    @property
    def completed(self) -> bool:
        return self.state is RequestState.COMPLETED

    def to_stats(self) -> OutcomeStats:
        """Project onto the backend-independent
        :class:`~repro.market.outcomes.OutcomeStats` record (the type the
        fastpath oracle and the sweep kernels return)."""
        return OutcomeStats(
            completed=self.completed,
            cost=self.cost,
            completion_time=(
                self.completion_time if self.completion_time is not None else math.nan
            ),
            running_time=self.running_time,
            idle_time=self.idle_time,
            recovery_time_used=self.recovery_time_used,
            interruptions=self.interruptions,
        )


class SpotMarket:
    """Discrete-time spot market running requests against a price source."""

    def __init__(
        self,
        price_source: PriceSource,
        *,
        slot_length: float = DEFAULT_SLOT_HOURS,
        billing_factory: Callable[[], BillingPolicy] = PerSlotBilling,
        record_events: bool = True,
    ):
        if slot_length <= 0:
            raise MarketError(f"slot_length must be positive, got {slot_length!r}")
        self._source = price_source
        self.slot_length = float(slot_length)
        self._billing_factory = billing_factory
        self.log = EventLog(enabled=record_events)
        self._requests: Dict[int, SpotRequest] = {}
        self._next_id = 1
        #: Index of the next slot to simulate.
        self.slot = 0
        #: Price set in the most recently simulated slot.
        self.current_price: Optional[float] = None

    # -- submission -----------------------------------------------------
    def submit(
        self,
        *,
        bid_price: float,
        work: float,
        kind: BidKind,
        recovery_time: float = 0.0,
        label: str = "",
    ) -> int:
        """Submit a spot request; returns its request id.

        The request is first considered in the *next* simulated slot.
        """
        request = SpotRequest(
            request_id=self._next_id,
            bid_price=bid_price,
            kind=kind,
            work=work,
            recovery_time=recovery_time,
            submitted_slot=self.slot,
            label=label,
            billing=self._billing_factory(),
        )
        self._requests[request.request_id] = request
        self._next_id += 1
        self.log.record(
            MarketEvent(
                kind=EventKind.REQUEST_SUBMITTED,
                slot=self.slot,
                time_hours=self.slot * self.slot_length,
                request_id=request.request_id,
                price=bid_price,
                detail=label,
            )
        )
        return request.request_id

    def cancel(self, request_id: int) -> None:
        """Cancel an active request (user-side termination)."""
        cancel_request(self._request(request_id), self.slot, self.slot_length, self.log)

    # -- simulation ------------------------------------------------------
    def step(self) -> float:
        """Simulate one slot; returns the slot's spot price."""
        price = self._source.next_price()
        if price < 0 or not math.isfinite(price):
            raise MarketError(f"price source produced invalid price {price!r}")
        self.current_price = price
        self.log.record(
            MarketEvent(
                kind=EventKind.PRICE_SET,
                slot=self.slot,
                time_hours=self.slot * self.slot_length,
                price=price,
            )
        )
        for request in self._requests.values():
            if request.is_active:
                advance_request(request, price, self.slot, self.slot_length, self.log)
        self.slot += 1
        return price

    def run_until_done(self, *, max_slots: int = _DEFAULT_MAX_SLOTS) -> int:
        """Step until every request reaches a terminal state.

        Returns the number of slots simulated.  Raises
        :class:`MarketError` if ``max_slots`` elapse with work pending or
        the price source runs dry first.
        """
        if max_slots < 1:
            raise MarketError(f"max_slots must be >= 1, got {max_slots!r}")
        steps = 0
        while self.has_active_requests():
            remaining = self._source.remaining_slots()
            if remaining is not None and remaining <= 0:
                raise MarketError(
                    f"price source exhausted after {steps} slots with "
                    f"{self.active_request_count()} request(s) still active"
                )
            if steps >= max_slots:
                raise MarketError(
                    f"requests still active after max_slots={max_slots} slots"
                )
            self.step()
            steps += 1
        return steps

    # -- inspection -------------------------------------------------------
    def _request(self, request_id: int) -> SpotRequest:
        try:
            return self._requests[request_id]
        except KeyError:
            raise MarketError(f"unknown request id {request_id!r}")

    def request_state(self, request_id: int) -> RequestState:
        return self._request(request_id).state

    def has_active_requests(self) -> bool:
        return any(r.is_active for r in self._requests.values())

    def active_request_count(self) -> int:
        return sum(1 for r in self._requests.values() if r.is_active)

    def outcome(self, request_id: int) -> JobOutcome:
        """Summarize a request; valid at any point, terminal or not."""
        r = self._request(request_id)
        return JobOutcome(
            request_id=r.request_id,
            label=r.label,
            state=r.state,
            bid_price=r.bid_price,
            kind=r.kind,
            cost=r.cost,
            submitted_slot=r.submitted_slot,
            completion_time=r.completion_time(self.slot_length),
            running_time=r.running_hours,
            idle_time=r.idle_hours,
            recovery_time_used=r.recovery_hours,
            interruptions=r.interruptions,
        )

    def outcomes(self) -> List[JobOutcome]:
        """Outcomes for every request, in submission order."""
        return [self.outcome(rid) for rid in sorted(self._requests)]

    @property
    def now_hours(self) -> float:
        """Absolute market time at the next slot boundary."""
        return self.slot * self.slot_length
