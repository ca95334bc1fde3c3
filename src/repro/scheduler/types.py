"""Typed records shared by the work-stealing scheduler's two halves.

The coordinator (:mod:`repro.scheduler.pool`) and the worker entry point
(:mod:`repro.scheduler.worker`) communicate over duplex pipes with small
tagged tuples; everything the caller sees afterwards is one of the frozen
dataclasses below.  Failures are
:class:`repro.scheduler.journal.ItemFailure` records, so partial
scheduler runs surface exactly like partial resilient sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from .journal import ItemFailure

__all__ = ["Shard", "SchedulerStats", "SchedulerResult"]


@dataclass(frozen=True)
class Shard:
    """One schedulable unit of work.

    ``payload`` is whatever the shard function consumes; ``key`` names
    the shard in journals (stable across driver restarts) and ``label``
    names it in failure records.
    """

    index: int
    payload: Any
    key: str
    label: str


@dataclass(frozen=True)
class SchedulerStats:
    """Counters describing how one :func:`~repro.scheduler.run_shards`
    call actually played out.

    ``speculated``/``duplicates_dropped`` trace straggler re-dispatch
    (first completion wins; the loser's result is discarded, never
    merged).  ``worker_crashes`` counts pipe EOFs and dead processes,
    ``workers_respawned`` the replacements, ``workers_reclaimed`` the
    workers killed because they were still grinding on a shard another
    copy had already finished.  On the thread lane only ``n_shards``,
    ``reused``, ``dispatched`` (attempts) and ``quarantined`` move.
    """

    n_shards: int = 0
    reused: int = 0
    dispatched: int = 0
    speculated: int = 0
    duplicates_dropped: int = 0
    worker_crashes: int = 0
    workers_respawned: int = 0
    workers_reclaimed: int = 0
    quarantined: int = 0


@dataclass(frozen=True)
class SchedulerResult:
    """Outcome of one scheduler run over a batch of shards.

    ``results`` is in shard order — assembly never depends on completion
    order, which is what keeps scheduler output bitwise identical to a
    serial run for pure shard functions.  Quarantined shards hold
    ``None`` and appear in ``failures``.
    """

    results: List[Optional[Any]]
    failures: Tuple[ItemFailure, ...] = ()
    #: Shard indices served from the journal instead of recomputed.
    reused: Tuple[int, ...] = ()
    stats: SchedulerStats = field(default_factory=SchedulerStats)

    @property
    def ok(self) -> bool:
        return not self.failures
