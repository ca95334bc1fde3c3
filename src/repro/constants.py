"""Shared numeric constants and the ``REPRO_*`` environment registry.

All prices in this library are expressed in dollars per instance-hour and
all durations in hours, matching the units used throughout the paper
(Section 5, Table 1).

Behaviour switches read from the process environment are declared here,
once, as :class:`EnvVar` entries in :data:`ENV_VARS`.  Everything else in
the package goes through these entries (``SWEEP_KERNEL.get()``) instead
of touching ``os.environ`` directly — the ``repro.checks`` rule ``RB301``
enforces this, and the registry is the source of truth for the variable
table in ``docs/development.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Generic, Mapping, Tuple, TypeVar

from .errors import ReproError

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


class EnvVarError(ReproError, ValueError):
    """A ``REPRO_*`` environment variable holds an invalid value.

    Subclasses :class:`ValueError` so legacy callers that validated the
    raw strings themselves keep their exception contracts.
    """


_T = TypeVar("_T")


@dataclass(frozen=True)
class EnvVar(Generic[_T]):
    """One registered ``REPRO_*`` environment variable.

    ``parse`` receives the stripped raw string (never empty — an unset
    or blank variable yields ``default``) and either returns the parsed
    value or raises :class:`EnvVarError` with a message naming the
    variable.  ``get`` re-reads the environment on every call so the
    switches also work when set after import (e.g. in spawned pool
    workers inheriting the parent's environment).
    """

    name: str
    default: _T
    parse: Callable[[str], _T]
    description: str
    #: Human-readable value domain, shown in docs and error messages.
    values: str = ""

    def get(self) -> _T:
        raw = os.environ.get(self.name, "").strip()
        if not raw:
            return self.default
        return self.parse(raw)


#: Kernel families accepted by :data:`SWEEP_KERNEL`.
SWEEP_KERNEL_MODES: Tuple[str, ...] = ("event", "reference")


def _parse_sweep_kernel(raw: str) -> str:
    mode = raw.lower()
    if mode in SWEEP_KERNEL_MODES:
        return mode
    allowed = ", ".join(repr(m) for m in SWEEP_KERNEL_MODES)
    raise EnvVarError(
        f"REPRO_SWEEP_KERNEL must be one of {allowed}, got {raw!r}"
    )


def _parse_dist_cache_size(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise EnvVarError(
            f"REPRO_DIST_CACHE_SIZE must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise EnvVarError(
            f"REPRO_DIST_CACHE_SIZE must be a positive integer, got {raw!r}"
        )
    return value


#: Kernel-family switch shared by the sweep engine and the MapReduce
#: plan grid: ``event`` (default) runs the event-driven kernels,
#: ``reference`` the dense/scalar oracle paths.
SWEEP_KERNEL: "EnvVar[str]" = EnvVar(
    name="REPRO_SWEEP_KERNEL",
    default="event",
    parse=_parse_sweep_kernel,
    description="Kernel family used by repro.sweep and repro.mapreduce "
    "grids: the event-driven kernels or the dense/scalar oracle path.",
    values="event (default) | reference",
)

#: Bound on the process-local memoized-distribution cache
#: (:mod:`repro.core.distcache`).
DIST_CACHE_SIZE: "EnvVar[int]" = EnvVar(
    name="REPRO_DIST_CACHE_SIZE",
    default=64,
    parse=_parse_dist_cache_size,
    description="Maximum number of distinct price histories kept alive "
    "by the distribution cache in repro.core.distcache.",
    values="positive integer (default 64)",
)

def _parse_serve_port(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise EnvVarError(
            f"REPRO_SERVE_PORT must be an integer in [0, 65535], got {raw!r}"
        ) from None
    if not 0 <= value <= 65535:
        raise EnvVarError(
            f"REPRO_SERVE_PORT must be an integer in [0, 65535], got {raw!r}"
        )
    return value


def _parse_serve_grid(raw: str) -> Tuple[int, int]:
    parts = raw.lower().split("x")
    try:
        if len(parts) != 2:
            raise ValueError
        n_ts, n_tr = (int(p) for p in parts)
    except ValueError:
        raise EnvVarError(
            f"REPRO_SERVE_TABLE_GRID must look like '32x8' "
            f"(execution-time points x recovery-time points), got {raw!r}"
        ) from None
    if n_ts < 2 or n_tr < 1:
        raise EnvVarError(
            f"REPRO_SERVE_TABLE_GRID needs at least 2 execution-time and "
            f"1 recovery-time points, got {raw!r}"
        )
    return n_ts, n_tr


def _parse_positive_int(name: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise EnvVarError(
            f"{name} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise EnvVarError(f"{name} must be a positive integer, got {raw!r}")
    return value


#: Default TCP port of the ``repro-bid serve`` daemon.
SERVE_PORT: "EnvVar[int]" = EnvVar(
    name="REPRO_SERVE_PORT",
    default=7787,
    parse=_parse_serve_port,
    description="Default TCP port the repro.serve daemon listens on "
    "(0 picks an ephemeral port).",
    values="integer in [0, 65535] (default 7787)",
)

#: Bid-table resolution used by :mod:`repro.serve.tables`.
SERVE_TABLE_GRID: "EnvVar[Tuple[int, int]]" = EnvVar(
    name="REPRO_SERVE_TABLE_GRID",
    default=(32, 8),
    parse=_parse_serve_grid,
    description="Bid-table grid resolution for repro.serve, as "
    "execution-time x recovery-time bucket counts.",
    values="'<n_ts>x<n_tr>' with n_ts >= 2, n_tr >= 1 (default 32x8)",
)

#: Capacity of the in-process decision LRU in :mod:`repro.serve.cache`.
SERVE_CACHE_SIZE: "EnvVar[int]" = EnvVar(
    name="REPRO_SERVE_CACHE_SIZE",
    default=4096,
    parse=lambda raw: _parse_positive_int("REPRO_SERVE_CACHE_SIZE", raw),
    description="Maximum number of decision responses kept in the "
    "serving layer's in-process LRU cache.",
    values="positive integer (default 4096)",
)

#: Staleness TTL of served bid tables, in ingest slots.
SERVE_STALE_SLOTS: "EnvVar[int]" = EnvVar(
    name="REPRO_SERVE_STALE_SLOTS",
    default=SLOTS_PER_DAY,
    parse=lambda raw: _parse_positive_int("REPRO_SERVE_STALE_SLOTS", raw),
    description="Number of ingested market slots after which a bid table "
    "counts as stale and the service degrades to the on-demand fallback.",
    values=f"positive integer (default {SLOTS_PER_DAY}, one day of slots)",
)

def _parse_positive_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise EnvVarError(
            f"{name} must be a positive number, got {raw!r}"
        ) from None
    if not value > 0:
        raise EnvVarError(f"{name} must be a positive number, got {raw!r}")
    return value


#: Straggler deadline multiplier of the work-stealing scheduler
#: (:mod:`repro.scheduler`): a running shard older than ``factor`` times
#: the median completed-shard duration gets a speculative second copy.
SCHED_STRAGGLER_FACTOR: "EnvVar[float]" = EnvVar(
    name="REPRO_SCHED_STRAGGLER_FACTOR",
    default=3.0,
    parse=lambda raw: _parse_positive_float("REPRO_SCHED_STRAGGLER_FACTOR", raw),
    description="Multiple of the median completed-shard duration after "
    "which the scheduler speculatively re-dispatches a running shard.",
    values="positive number (default 3.0)",
)

#: Floor of the straggler deadline in seconds, so tiny shards do not
#: trigger speculation on scheduler noise alone.
SCHED_STRAGGLER_MIN_SECONDS: "EnvVar[float]" = EnvVar(
    name="REPRO_SCHED_STRAGGLER_MIN_SECONDS",
    default=1.0,
    parse=lambda raw: _parse_positive_float(
        "REPRO_SCHED_STRAGGLER_MIN_SECONDS", raw
    ),
    description="Lower bound on the scheduler's straggler deadline; no "
    "shard is speculatively re-dispatched before this many seconds.",
    values="positive number of seconds (default 1.0)",
)

#: Interval between scheduler-worker heartbeats, in seconds.
SCHED_HEARTBEAT_SECONDS: "EnvVar[float]" = EnvVar(
    name="REPRO_SCHED_HEARTBEAT_SECONDS",
    default=0.5,
    parse=lambda raw: _parse_positive_float(
        "REPRO_SCHED_HEARTBEAT_SECONDS", raw
    ),
    description="Seconds between heartbeat messages from scheduler "
    "workers to the coordinator.",
    values="positive number of seconds (default 0.5)",
)

#: Failures after which a shard is quarantined as poison (on the pool,
#: on distinct worker incarnations).
SCHED_MAX_SHARD_FAILURES: "EnvVar[int]" = EnvVar(
    name="REPRO_SCHED_MAX_SHARD_FAILURES",
    default=3,
    parse=lambda raw: _parse_positive_int("REPRO_SCHED_MAX_SHARD_FAILURES", raw),
    description="Number of failures (on the process pool, on distinct "
    "workers) after which the scheduler quarantines a shard as poison "
    "instead of re-running it.",
    values="positive integer (default 3)",
)

#: Resolution of the on-demand/spot split grid scanned by the portfolio
#: strategy (:mod:`repro.extensions.portfolio`).
PORTFOLIO_GRID: "EnvVar[int]" = EnvVar(
    name="REPRO_PORTFOLIO_GRID",
    default=33,
    parse=lambda raw: _parse_positive_int("REPRO_PORTFOLIO_GRID", raw),
    description="Number of on-demand fraction grid points scanned by the "
    "portfolio bid optimizer in repro.extensions.portfolio.",
    values="positive integer (default 33)",
)

def _parse_bool_flag(name: str, raw: str) -> bool:
    value = raw.lower()
    if value in ("1", "true", "on", "yes"):
        return True
    if value in ("0", "false", "off", "no"):
        return False
    raise EnvVarError(
        f"{name} must be a boolean flag (0/1/true/false/on/off), got {raw!r}"
    )


#: Switch for the incremental result cache of ``repro-bid check``.
CHECK_CACHE: "EnvVar[bool]" = EnvVar(
    name="REPRO_CHECK_CACHE",
    default=True,
    parse=lambda raw: _parse_bool_flag("REPRO_CHECK_CACHE", raw),
    description="Enable the incremental result cache of repro-bid check "
    "(per-file findings keyed by content hash and rule-pack version, "
    "stored under .repro-check-cache/ at the repo root); 0 disables all "
    "cache reads and writes.",
    values="boolean flag (default 1)",
)

#: Number of historical windows the CVaR bid selector scores each
#: candidate bid on (:mod:`repro.extensions.portfolio`).
CVAR_WINDOWS: "EnvVar[int]" = EnvVar(
    name="REPRO_CVAR_WINDOWS",
    default=16,
    parse=lambda raw: _parse_positive_int("REPRO_CVAR_WINDOWS", raw),
    description="Number of rolling historical windows the CVaR bid "
    "selector sweeps each candidate bid across.",
    values="positive integer (default 16)",
)

#: Every environment variable the package reads, keyed by name.  New
#: ``REPRO_*`` switches must be added here (rule ``RB301``) and to the
#: table in ``docs/development.md``.
ENV_VARS: Mapping[str, "EnvVar[object]"] = {
    var.name: var
    for var in (
        SWEEP_KERNEL,
        DIST_CACHE_SIZE,
        SERVE_PORT,
        SERVE_TABLE_GRID,
        SERVE_CACHE_SIZE,
        SERVE_STALE_SLOTS,
        SCHED_STRAGGLER_FACTOR,
        SCHED_STRAGGLER_MIN_SECONDS,
        SCHED_HEARTBEAT_SECONDS,
        SCHED_MAX_SHARD_FAILURES,
        PORTFOLIO_GRID,
        CVAR_WINDOWS,
        CHECK_CACHE,
    )
}


def env_var(name: str) -> "EnvVar[object]":
    """Look up a registered variable by name.

    Raises :class:`EnvVarError` for unregistered names so typos fail
    loudly rather than silently reading an empty environment slot.
    """
    try:
        return ENV_VARS[name]
    except KeyError:
        raise EnvVarError(
            f"{name!r} is not a registered REPRO_* environment variable; "
            f"known: {', '.join(sorted(ENV_VARS))}"
        ) from None
