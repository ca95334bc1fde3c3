"""Fault-tolerant work-stealing shard execution.

The package's single process-fan-out path (ROADMAP item 3):
:func:`run_shards` splits work into shards pulled dynamically by a
persistent worker pool, with worker heartbeats, deadline-based straggler
speculation (first completion wins), crash detection with automatic
respawn and shard re-queue, poison-shard quarantine, and fsync'd
JSON-lines :class:`~repro.resilience.execution.SweepJournal` resume.
:func:`repro.sweep.run_sweep` (``executor="process"``) and
:func:`repro.mapreduce.run_plan_grid` route process fan-out through
here; seeded process-level chaos for it lives in
:class:`repro.resilience.faults.WorkerFaults`.
"""

from .pool import run_shards
from .types import SchedulerResult, SchedulerStats, Shard

__all__ = [
    "SchedulerResult",
    "SchedulerStats",
    "Shard",
    "run_shards",
]
