"""The spot-market simulator substrate (the repo's EC2 stand-in)."""

from .billing import BillingPolicy, HourlyBilling, PerSlotBilling
from .events import EventKind, EventLog, MarketEvent
from .fastpath import fast_onetime_outcome, fast_persistent_outcome
from .outcomes import OutcomeStats
from .price_sources import (
    EndogenousPriceSource,
    IIDPriceSource,
    PriceSource,
    ProviderPriceSource,
    TracePriceSource,
)
from .requests import RequestState, SpotRequest
from .simulator import JobOutcome, SpotMarket

__all__ = [
    "BillingPolicy",
    "HourlyBilling",
    "PerSlotBilling",
    "EventKind",
    "EventLog",
    "MarketEvent",
    "OutcomeStats",
    "fast_onetime_outcome",
    "fast_persistent_outcome",
    "EndogenousPriceSource",
    "IIDPriceSource",
    "PriceSource",
    "ProviderPriceSource",
    "TracePriceSource",
    "RequestState",
    "SpotRequest",
    "JobOutcome",
    "SpotMarket",
]

