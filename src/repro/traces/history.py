"""Spot-price history container.

A :class:`SpotPriceHistory` is the in-memory form of what Amazon's
``describe-spot-price-history`` API returned: a regularly sampled series
of per-slot spot prices.  It is the input to the bidding client (it turns
into an :class:`~repro.core.distributions.EmpiricalPriceDistribution`) and
the replayable price source for the market simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..constants import DEFAULT_SLOT_HOURS
from ..core.distributions import EmpiricalPriceDistribution
from ..errors import TraceError

__all__ = ["SpotPriceHistory"]


@dataclass(frozen=True)
class SpotPriceHistory:
    """A regularly sampled spot-price trace for one instance type.

    Parameters
    ----------
    prices:
        Per-slot spot prices, $/hour, in chronological order.
    slot_length:
        Slot duration in hours (default: five minutes).
    start_hour:
        Absolute time of the first slot, in hours since an arbitrary
        midnight epoch; used for day/night splits.
    instance_type:
        Optional instance-type name for labeling.
    """

    prices: np.ndarray
    slot_length: float = DEFAULT_SLOT_HOURS
    start_hour: float = 0.0
    instance_type: Optional[str] = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.prices, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise TraceError("prices must be a non-empty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise TraceError("prices must all be finite")
        if np.any(arr < 0):
            raise TraceError("prices must be non-negative")
        if not self.slot_length > 0:
            raise TraceError(f"slot_length must be positive, got {self.slot_length!r}")
        if self.start_hour < 0:
            raise TraceError(f"start_hour must be non-negative, got {self.start_hour!r}")
        object.__setattr__(self, "prices", arr)

    # -- basic shape -----------------------------------------------------
    @property
    def n_slots(self) -> int:
        return int(self.prices.size)

    @property
    def duration_hours(self) -> float:
        return self.n_slots * self.slot_length

    def timestamps(self) -> np.ndarray:
        """Start time of each slot, in hours since the epoch."""
        return self.start_hour + np.arange(self.n_slots) * self.slot_length

    def price_at(self, hour: float) -> float:
        """Spot price in force at absolute time ``hour``."""
        idx = int((hour - self.start_hour) / self.slot_length)
        if not 0 <= idx < self.n_slots:
            raise TraceError(
                f"time {hour!r}h is outside the trace "
                f"[{self.start_hour}, {self.start_hour + self.duration_hours})"
            )
        return float(self.prices[idx])

    # -- slicing ----------------------------------------------------------
    def slice_slots(self, start: int, stop: int) -> "SpotPriceHistory":
        """Sub-trace over the half-open slot range ``[start, stop)``."""
        if not 0 <= start < stop <= self.n_slots:
            raise TraceError(
                f"invalid slot range [{start}, {stop}) for {self.n_slots} slots"
            )
        return SpotPriceHistory(
            prices=self.prices[start:stop].copy(),
            slot_length=self.slot_length,
            start_hour=self.start_hour + start * self.slot_length,
            instance_type=self.instance_type,
        )

    def last_hours(self, hours: float) -> "SpotPriceHistory":
        """The trailing ``hours`` of the trace (e.g. the 10-hour lookback
        of the retrospective heuristic)."""
        slots = int(round(hours / self.slot_length))
        if slots < 1:
            raise TraceError(f"window {hours!r}h is shorter than one slot")
        if slots > self.n_slots:
            raise TraceError(
                f"window {hours!r}h exceeds the trace length "
                f"{self.duration_hours:.6g}h"
            )
        return self.slice_slots(self.n_slots - slots, self.n_slots)

    def split_at_hour(self, hour: float) -> Tuple["SpotPriceHistory", "SpotPriceHistory"]:
        """Split into (history, future) at an absolute time — the standard
        backtest protocol (fit on the past, bid into the future)."""
        idx = int(round((hour - self.start_hour) / self.slot_length))
        if not 0 < idx < self.n_slots:
            raise TraceError(f"split hour {hour!r} not strictly inside the trace")
        return self.slice_slots(0, idx), self.slice_slots(idx, self.n_slots)

    # -- statistics ---------------------------------------------------------
    def mean(self) -> float:
        return float(self.prices.mean())

    def to_distribution(
        self, *, upper: Optional[float] = None
    ) -> EmpiricalPriceDistribution:
        """The ECDF of this trace — what the bidding client feeds Prop. 4/5.

        Its ``percentile(q)`` is the trace's ``q``-th percentile price,
        the quantile the §7.1 percentile heuristic bids.
        """
        return EmpiricalPriceDistribution(self.prices, upper=upper)

    def day_night_split(
        self, *, day_start: float = 8.0, day_end: float = 20.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Partition prices into daytime and nighttime observations.

        Used by the Section 4.3 Kolmogorov–Smirnov check that the price
        distribution "does not vary significantly over the day".
        """
        if not 0.0 <= day_start < day_end <= 24.0:
            raise TraceError(
                f"need 0 <= day_start < day_end <= 24, got "
                f"({day_start!r}, {day_end!r})"
            )
        hour_of_day = np.mod(self.timestamps(), 24.0)
        day_mask = (hour_of_day >= day_start) & (hour_of_day < day_end)
        return self.prices[day_mask], self.prices[~day_mask]

    def __len__(self) -> int:
        return self.n_slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.instance_type or "unlabeled"
        return (
            f"SpotPriceHistory({label}, {self.n_slots} slots, "
            f"{self.duration_hours:.1f}h, "
            f"price range [{self.prices.min():.4g}, {self.prices.max():.4g}])"
        )
