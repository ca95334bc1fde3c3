"""Fault-tolerant work-stealing shard execution.

The package's one fan-out executor: :func:`run_shards` runs a shard
function over payloads on one of two lanes.  The process
lane splits work into shards pulled dynamically by a persistent worker
pool, with deadline-based straggler speculation (first completion
wins), crash detection with automatic respawn and shard re-queue, and
shard timeouts.  The thread lane
(:mod:`repro.scheduler.inline`) runs shards in the calling process,
serially or on threads.  Both share poison-shard quarantine, recorded
as :class:`ItemFailure` rows, and JSON-lines :class:`SweepJournal`
resume (:mod:`repro.scheduler.journal`).
:func:`repro.sweep.run_sweep` runs every sweep through here, and
:func:`repro.mapreduce.run_plan_grid` its process fan-out; seeded
process-level chaos for the pool lives in
:class:`repro.resilience.faults.WorkerFaults`.
"""

from .journal import ItemFailure, JournalWarning, SweepJournal
from .pool import run_shards
from .types import SchedulerResult, SchedulerStats, Shard

__all__ = [
    "ItemFailure",
    "JournalWarning",
    "SchedulerResult",
    "SchedulerStats",
    "Shard",
    "SweepJournal",
    "run_shards",
]
