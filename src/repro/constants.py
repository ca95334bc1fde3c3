"""Shared numeric constants.

All prices in this library are expressed in dollars per instance-hour and
all durations in hours, matching the units used throughout the paper
(Section 5, Table 1).
"""

from __future__ import annotations

#: Length of one spot-market time slot in hours.  Amazon updates the spot
#: price roughly every five minutes (Section 3.2).
DEFAULT_SLOT_HOURS: float = 5.0 / 60.0

#: Number of time slots in one day at the default slot length.
SLOTS_PER_DAY: int = round(24.0 / DEFAULT_SLOT_HOURS)

#: Length of the spot-price history window Amazon exposes, in days
#: (Section 1.2: "the two-month history made available by Amazon").
HISTORY_WINDOW_DAYS: int = 60

#: Seconds per hour, for converting the paper's second-denominated recovery
#: times (t_r = 10s, 30s) and overheads (t_o = 60s) into hours.
SECONDS_PER_HOUR: float = 3600.0

#: Absolute tolerance used when comparing prices ($/hour).
PRICE_ATOL: float = 1e-9

#: Absolute tolerance used when comparing durations (hours).
TIME_ATOL: float = 1e-9

#: Relative tolerance for generic floating-point comparisons.
RTOL: float = 1e-9


def seconds(value: float) -> float:
    """Convert a duration in seconds to hours.

    Convenience helper for expressing the paper's parameters, e.g.
    ``JobSpec(execution_time=1.0, recovery_time=seconds(30))``.
    """
    if value < 0:
        raise ValueError(f"duration must be non-negative, got {value!r}")
    return value / SECONDS_PER_HOUR


def minutes(value: float) -> float:
    """Convert a duration in minutes to hours."""
    if value < 0:
        raise ValueError(f"duration must be non-negative, got {value!r}")
    return value / 60.0
