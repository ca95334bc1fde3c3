"""Fault injection and resilient execution for large backtests.

The paper's Section 7 experiments assume clean price traces and an
uninterrupted backtest loop.  This package drops both assumptions:

* :mod:`repro.resilience.faults` — seeded, declarative
  :class:`FaultSpec` perturbations (price spikes, plateaus, missing and
  duplicated slots, revocation storms, truncation) composed by a
  :class:`FaultInjector` that rewrites recorded traces or wraps a live
  market's price source.
* :mod:`repro.resilience.execution` — the records behind
  :func:`repro.sweep.run_sweep`'s resilient mode: a shard that keeps
  failing becomes a structured :class:`ItemFailure` in a partial report
  instead of aborting the run, and a :class:`SweepJournal` lets an
  interrupted sweep resume without recomputing finished shards.  The
  retry, quarantine and journal rules themselves live once, in
  :func:`repro.scheduler.run_shards`.
* :mod:`repro.resilience.chaos` — the ``repro-bid chaos`` harness:
  backtest one bid under every fault class and report cost/completion
  degradation relative to the clean run, and (``--kill-workers``) run a
  sweep on the work-stealing pool under seeded process-level faults to
  prove the results stay bitwise identical.
"""

from .chaos import (
    ChaosReport,
    FaultClassResult,
    MapReduceChaosReport,
    MapReduceFaultClassResult,
    WorkerChaosReport,
    default_fault_suite,
    run_chaos,
    run_mapreduce_chaos,
    run_worker_chaos,
)
from .execution import ItemFailure, JournalWarning, SweepJournal
from .faults import (
    FaultInjector,
    FaultSpec,
    FaultyPriceSource,
    PricePlateau,
    PriceSpike,
    RevocationStorm,
    SlotDropout,
    SlotDuplication,
    TraceTruncation,
    WorkerFaultPlan,
    WorkerFaults,
)

__all__ = [
    "ChaosReport",
    "FaultClassResult",
    "FaultInjector",
    "FaultSpec",
    "FaultyPriceSource",
    "ItemFailure",
    "JournalWarning",
    "MapReduceChaosReport",
    "MapReduceFaultClassResult",
    "PricePlateau",
    "PriceSpike",
    "RevocationStorm",
    "SlotDropout",
    "SlotDuplication",
    "SweepJournal",
    "TraceTruncation",
    "WorkerChaosReport",
    "WorkerFaultPlan",
    "WorkerFaults",
    "default_fault_suite",
    "run_chaos",
    "run_mapreduce_chaos",
    "run_worker_chaos",
]
