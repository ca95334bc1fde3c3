"""Fault injection and chaos harnesses for large backtests.

The paper's Section 7 experiments assume clean price traces and an
uninterrupted backtest loop.  This package drops both assumptions:

* :mod:`repro.resilience.faults` — seeded, declarative
  :class:`FaultSpec` perturbations (price spikes, plateaus, missing and
  duplicated slots, revocation storms, truncation) composed by a
  :class:`FaultInjector` that rewrites a price trace; a live feed
  replays the rewritten trace.
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
from .faults import (
    FaultInjector,
    FaultSpec,
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
    "MapReduceChaosReport",
    "MapReduceFaultClassResult",
    "PricePlateau",
    "PriceSpike",
    "RevocationStorm",
    "SlotDropout",
    "SlotDuplication",
    "TraceTruncation",
    "WorkerChaosReport",
    "WorkerFaultPlan",
    "WorkerFaults",
    "default_fault_suite",
    "run_chaos",
    "run_mapreduce_chaos",
    "run_worker_chaos",
]
