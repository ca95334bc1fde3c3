"""Spot request records and their lifecycle states (Section 3.2).

A :class:`SpotRequest` tracks everything about one bid: the price, the
request kind (one-time vs persistent), the attached workload, and the
mutable runtime state the simulator advances slot by slot.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.types import BidKind
from ..errors import MarketError
from .billing import BillingPolicy, PerSlotBilling

__all__ = ["RequestState", "SpotRequest"]


class RequestState(enum.Enum):
    """Lifecycle states (Figure 2's new/pending/running/finished, refined)."""

    #: Waiting for the bid to beat the spot price (never ran, or persistent
    #: request knocked back after an interruption).
    PENDING = "pending"
    #: Launched and running in the current slot.
    RUNNING = "running"
    #: Work finished; terminal.
    COMPLETED = "completed"
    #: One-time request out-bid after launching; terminal.
    FAILED = "failed"
    #: Cancelled by the user; terminal.
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (
            RequestState.COMPLETED,
            RequestState.FAILED,
            RequestState.CANCELLED,
        )


@dataclass
class SpotRequest:
    """One spot-instance request plus its runtime bookkeeping.

    Parameters
    ----------
    request_id:
        Simulator-assigned identifier.
    bid_price:
        The user's bid, $/hour.
    kind:
        One-time or persistent (Section 3.2).
    work:
        Execution time the job still needs, in hours.  ``math.inf`` makes
        the request run until cancelled (used for master nodes, which are
        stopped by the MapReduce runner once the slaves finish).
    recovery_time:
        ``t_r`` — extra running time consumed after each resume from an
        interruption.
    submitted_slot:
        Slot index at which the request entered the market.
    label:
        Free-form tag for experiments ("master", "slave-3", ...).
    """

    request_id: int
    bid_price: float
    kind: BidKind
    work: float
    recovery_time: float = 0.0
    submitted_slot: int = 0
    label: str = ""
    billing: BillingPolicy = field(default_factory=PerSlotBilling)

    # -- runtime state -------------------------------------------------
    state: RequestState = RequestState.PENDING
    work_remaining: float = field(init=False)
    #: Recovery hours still owed before useful work resumes.
    pending_recovery: float = 0.0
    #: True once the request has launched at least once.
    ever_launched: bool = False
    interruptions: int = 0
    running_hours: float = 0.0
    idle_hours: float = 0.0
    recovery_hours: float = 0.0
    #: Absolute completion time in hours, set when the job finishes.
    completed_at: Optional[float] = None
    #: Absolute terminal time for failed/cancelled requests.
    closed_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.bid_price < 0 or not math.isfinite(self.bid_price):
            raise MarketError(f"bid_price must be finite and >= 0, got {self.bid_price!r}")
        if not (self.work > 0):
            raise MarketError(f"work must be positive, got {self.work!r}")
        if self.recovery_time < 0 or not math.isfinite(self.recovery_time):
            raise MarketError(
                f"recovery_time must be finite and >= 0, got {self.recovery_time!r}"
            )
        if self.submitted_slot < 0:
            raise MarketError(
                f"submitted_slot must be non-negative, got {self.submitted_slot!r}"
            )
        self.work_remaining = float(self.work)

    # -- derived metrics -------------------------------------------------
    @property
    def is_active(self) -> bool:
        return not self.state.is_terminal

    @property
    def cost(self) -> float:
        """Dollar cost accumulated by this request's billing policy."""
        return self.billing.total

    def completion_time(self, slot_length: float) -> Optional[float]:
        """Wall-clock completion time (submission → completion), hours."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_slot * slot_length
