"""The chaos harness: how does a bid degrade under each fault class?

:func:`run_chaos` backtests one bid decision on a clean future trace,
then re-runs it on copies of the future degraded by each fault class of
:func:`default_fault_suite`, and reports per-class cost and completion
deltas.  Because a single short job only overlaps a tiny window of the
future, each variant is executed from ``n_starts`` start slots spread
across the trace — faults landing anywhere get sampled — and the report
carries completion *rates* and *mean* costs over those runs.  Everything
is a pure function of the root seed, so a chaos run is exactly
reproducible — the property the acceptance tests (and any CI regression
gate built on top) rely on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.client import BiddingClient
from ..core.types import (
    DecisionRequest,
    JobSpec,
    MapReducePlan,
    Strategy,
    normalize_strategy,
)
from ..errors import FaultError
from ..sweep import run_sweep
from ..traces.history import SpotPriceHistory
from .faults import (
    FaultInjector,
    FaultSpec,
    PricePlateau,
    PriceSpike,
    RevocationStorm,
    SlotDropout,
    SlotDuplication,
    TraceTruncation,
    WorkerFaults,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..scheduler.types import SchedulerStats

__all__ = [
    "FaultClassResult",
    "ChaosReport",
    "MapReduceFaultClassResult",
    "MapReduceChaosReport",
    "WorkerChaosReport",
    "default_fault_suite",
    "run_chaos",
    "run_mapreduce_chaos",
    "run_worker_chaos",
]

#: Canonical fault-class order for suites and reports.
FAULT_CLASSES = (
    "spike",
    "plateau",
    "dropout",
    "duplication",
    "storm",
    "truncation",
)


def default_fault_suite(
    reference_price: float, *, intensity: float = 1.0
) -> Dict[str, Tuple[FaultSpec, ...]]:
    """The standard chaos suite, one entry per fault class.

    ``reference_price`` anchors the "above any sane bid" levels — pass
    the on-demand price, since no optimal bid exceeds it.  ``intensity``
    scales how hard each class hits (1.0 is the default calibration for
    5-minute slots).
    """
    if not reference_price > 0:
        raise FaultError(
            f"reference_price must be positive, got {reference_price!r}"
        )
    if not intensity > 0:
        raise FaultError(f"intensity must be positive, got {intensity!r}")
    high = reference_price * (1.0 + 4.0 * intensity)
    rate = min(1.0, 0.02 * intensity)
    plateau_slots = max(1, int(round(36 * intensity)))  # 3h of 5-min slots
    return {
        "spike": (PriceSpike(rate=rate, magnitude=10.0),),
        "plateau": (PricePlateau(level=high, duration_slots=plateau_slots),),
        "dropout": (SlotDropout(rate=min(1.0, 0.05 * intensity)),),
        "duplication": (SlotDuplication(rate=min(1.0, 0.05 * intensity)),),
        "storm": (
            RevocationStorm(
                level=high, bursts=max(1, int(round(3 * intensity)))
            ),
        ),
        "truncation": (
            TraceTruncation(fraction=max(0.05, min(1.0, 0.5 / intensity))),
        ),
    }


@dataclass(frozen=True)
class FaultClassResult:
    """Backtest outcome of one fault class versus the clean baseline.

    The job is executed once per start slot (``n_starts`` of them,
    spread over the first half of the future), so rates and means
    aggregate over runs whose windows do and do not overlap the faults.
    """

    name: str
    #: Fraction of the start slots from which the job completed.
    completion_rate: float
    mean_cost: float
    #: Mean wall-clock completion time over *completed* runs, hours
    #: (NaN when nothing completed).
    mean_completion_time: float
    mean_interruptions: float
    #: Mean realized cost minus the clean-run mean cost, in dollars.
    cost_delta: float
    #: Completion rate minus the clean-run completion rate.
    completion_delta: float
    #: Mean completion time minus the clean-run mean, in hours.
    time_delta: float


@dataclass(frozen=True)
class ChaosReport:
    """Everything :func:`run_chaos` measured, renderable as a table."""

    strategy: Strategy
    bid_price: float
    #: True when the bid itself was an on-demand fallback (DegradedDecision).
    degraded_bid: bool
    baseline_completion_rate: float
    baseline_mean_cost: float
    baseline_mean_completion_time: float
    n_starts: int
    seed: int
    results: Tuple[FaultClassResult, ...]

    def table(self) -> str:
        lines = [
            f"bid ${self.bid_price:.4f}/h ({self.strategy})"
            + ("  [degraded: on-demand fallback]" if self.degraded_bid else ""),
            f"clean runs ({self.n_starts} starts): "
            f"mean cost ${self.baseline_mean_cost:.4f}  "
            f"mean time {self.baseline_mean_completion_time:.2f}h  "
            f"completion {self.baseline_completion_rate:.0%}",
            f"{'fault class':14s} {'done%':>6s} {'cost $':>9s} "
            f"{'Δcost $':>9s} {'Δdone%':>7s} {'Δtime h':>8s} "
            f"{'intr':>6s}",
        ]
        for r in self.results:
            lines.append(
                f"{r.name:14s} {r.completion_rate:6.0%} "
                f"{r.mean_cost:9.4f} {r.cost_delta:+9.4f} "
                f"{r.completion_delta:+7.0%} {r.time_delta:+8.2f} "
                f"{r.mean_interruptions:6.1f}"
            )
        return "\n".join(lines)


def run_chaos(
    history: SpotPriceHistory,
    future: SpotPriceHistory,
    job: JobSpec,
    *,
    ondemand_price: float,
    strategy: Strategy = Strategy.PERSISTENT,
    seed: int = 0,
    intensity: float = 1.0,
    n_starts: int = 8,
    classes: Optional[Sequence[str]] = None,
    suite: Optional[Dict[str, Tuple[FaultSpec, ...]]] = None,
) -> ChaosReport:
    """Measure per-fault-class degradation of one bid decision.

    The bid is computed from ``history`` (falling back to the on-demand
    baseline if the optimization is infeasible) and executed from
    ``n_starts`` start slots spread over the first half of the clean
    ``future``, then again per fault class on a degraded copy of
    ``future``.  Class ``k`` perturbs with ``FaultInjector(specs,
    seed=seed).derive(k)``, so the whole report is reproducible from
    ``seed``.
    """
    strategy = normalize_strategy(strategy)
    if n_starts < 1:
        raise FaultError(f"n_starts must be >= 1, got {n_starts!r}")
    if suite is None:
        suite = default_fault_suite(ondemand_price, intensity=intensity)
    names = tuple(classes) if classes is not None else tuple(suite)
    unknown = [n for n in names if n not in suite]
    if unknown:
        raise FaultError(
            f"unknown fault class(es) {unknown!r}; choose from {sorted(suite)}"
        )

    client = BiddingClient(history, ondemand_price=ondemand_price)
    decision = client.respond(
        DecisionRequest(job=job, strategy=strategy, degrade=True)
    ).decision
    exec_strategy = (
        Strategy.ONE_TIME if strategy is Strategy.ONE_TIME else Strategy.PERSISTENT
    )

    # Start slots spread over the first half of the future, so every run
    # keeps at least half the trace as runway.
    span = max(1, future.n_slots // 2)
    starts = [(i * span) // n_starts for i in range(n_starts)]

    def mean_outcome(
        trace: SpotPriceHistory,
    ) -> Tuple[float, float, float, float]:
        offsets = [min(s, trace.n_slots - 1) for s in starts]
        report = run_sweep(
            [trace] * len(offsets),
            decision.price,
            job,
            strategy=exec_strategy,
            start_slots=offsets,
        )
        done = report.completed[:, 0]
        times = report.completion_time[:, 0]
        mean_time = float(times[done].mean()) if done.any() else float("nan")
        return (
            float(done.mean()),
            float(report.cost[:, 0].mean()),
            mean_time,
            float(report.interruptions[:, 0].mean()),
        )

    baseline_rate, baseline_cost, baseline_time, _ = mean_outcome(future)

    results = []
    for index, name in enumerate(names):
        injector = FaultInjector(suite[name], seed=seed).derive(index)
        degraded = injector.perturb_history(future)
        rate, cost, mean_time, interruptions = mean_outcome(degraded)
        results.append(
            FaultClassResult(
                name=name,
                completion_rate=rate,
                mean_cost=cost,
                mean_completion_time=mean_time,
                mean_interruptions=interruptions,
                cost_delta=cost - baseline_cost,
                completion_delta=rate - baseline_rate,
                time_delta=mean_time - baseline_time,
            )
        )
    return ChaosReport(
        strategy=strategy,
        bid_price=decision.price,
        degraded_bid=getattr(decision, "degraded", False),
        baseline_completion_rate=baseline_rate,
        baseline_mean_cost=baseline_cost,
        baseline_mean_completion_time=baseline_time,
        n_starts=n_starts,
        seed=seed,
        results=tuple(results),
    )


@dataclass(frozen=True)
class MapReduceFaultClassResult:
    """One fault class versus the clean MapReduce baseline.

    Master and slave markets are degraded *independently*: each class
    derives two injectors from the root seed and perturbs the master
    and slave traces before the plan runs on them.
    """

    name: str
    completion_rate: float
    mean_cost: float
    #: Mean completion time over *completed* runs, hours (NaN if none).
    mean_completion_time: float
    mean_interruptions: float
    mean_master_restarts: float
    #: Runs per termination reason, e.g. ``{"completed": 6, ...}``.
    termination_counts: Dict[str, int]
    cost_delta: float
    completion_delta: float
    time_delta: float


@dataclass(frozen=True)
class MapReduceChaosReport:
    """Everything :func:`run_mapreduce_chaos` measured."""

    master_bid: float
    slave_bid: float
    num_slaves: int
    baseline_completion_rate: float
    baseline_mean_cost: float
    baseline_mean_completion_time: float
    baseline_termination_counts: Dict[str, int]
    n_starts: int
    seed: int
    results: Tuple[MapReduceFaultClassResult, ...]

    def table(self) -> str:
        lines = [
            f"plan: master ${self.master_bid:.4f}/h, "
            f"{self.num_slaves} slaves @ ${self.slave_bid:.4f}/h",
            f"clean runs ({self.n_starts} starts): "
            f"mean cost ${self.baseline_mean_cost:.4f}  "
            f"mean time {self.baseline_mean_completion_time:.2f}h  "
            f"completion {self.baseline_completion_rate:.0%}",
            f"{'fault class':14s} {'done%':>6s} {'cost $':>9s} "
            f"{'Δcost $':>9s} {'Δdone%':>7s} {'Δtime h':>8s} "
            f"{'intr':>6s} {'restarts':>9s}  termination",
        ]
        for r in self.results:
            failures = {
                k: v
                for k, v in r.termination_counts.items()
                if k != "completed" and v
            }
            term = (
                ", ".join(f"{k}:{v}" for k, v in sorted(failures.items()))
                or "all completed"
            )
            lines.append(
                f"{r.name:14s} {r.completion_rate:6.0%} "
                f"{r.mean_cost:9.4f} {r.cost_delta:+9.4f} "
                f"{r.completion_delta:+7.0%} {r.time_delta:+8.2f} "
                f"{r.mean_interruptions:6.1f} {r.mean_master_restarts:9.1f}"
                f"  {term}"
            )
        return "\n".join(lines)


def run_mapreduce_chaos(
    plan: MapReducePlan,
    master_future: SpotPriceHistory,
    slave_future: SpotPriceHistory,
    *,
    reference_price: float,
    seed: int = 0,
    intensity: float = 1.0,
    n_starts: int = 8,
    classes: Optional[Sequence[str]] = None,
    suite: Optional[Dict[str, Tuple[FaultSpec, ...]]] = None,
    max_master_restarts: int = 50,
) -> MapReduceChaosReport:
    """Per-fault-class degradation of one MapReduce bidding plan.

    The §6.2 analogue of :func:`run_chaos`: ``plan`` is executed from
    ``n_starts`` start slots on the clean master/slave futures, then per
    fault class on copies where fault class ``k`` perturbs the master
    trace with ``derive(2k)`` and the slave trace with ``derive(2k+1)``
    — independent degradations of the two markets.  All the multi-start
    evaluation goes through the batched plan-grid kernel, and the whole
    report is a pure function of ``seed``.
    """
    from ..mapreduce.grid import run_plan_grid

    if n_starts < 1:
        raise FaultError(f"n_starts must be >= 1, got {n_starts!r}")
    if suite is None:
        suite = default_fault_suite(reference_price, intensity=intensity)
    names = tuple(classes) if classes is not None else tuple(suite)
    unknown = [n for n in names if n not in suite]
    if unknown:
        raise FaultError(
            f"unknown fault class(es) {unknown!r}; choose from {sorted(suite)}"
        )

    span = max(1, min(master_future.n_slots, slave_future.n_slots) // 2)
    starts = [(i * span) // n_starts for i in range(n_starts)]

    def mean_outcome(master_trace, slave_trace):
        limit = min(master_trace.n_slots, slave_trace.n_slots) - 1
        offsets = [min(s, limit) for s in starts]
        grid = run_plan_grid(
            plan,
            master_trace,
            slave_trace,
            start_slots=offsets,
            max_master_restarts=max_master_restarts,
        )
        done = grid.completed[0]
        times = grid.completion_time[0]
        mean_time = float(times[done].mean()) if done.any() else float("nan")
        return (
            float(done.mean()),
            float(grid.total_cost[0].mean()),
            mean_time,
            float(grid.slave_interruptions[0].mean()),
            float(grid.master_restarts[0].mean()),
            grid.termination_counts(0),
        )

    base_rate, base_cost, base_time, _, _, base_terms = mean_outcome(
        master_future, slave_future
    )

    results = []
    for index, name in enumerate(names):
        injector = FaultInjector(suite[name], seed=seed)
        degraded_master = injector.derive(2 * index).perturb_history(
            master_future
        )
        degraded_slave = injector.derive(2 * index + 1).perturb_history(
            slave_future
        )
        rate, cost, mean_time, interruptions, restarts, terms = mean_outcome(
            degraded_master, degraded_slave
        )
        results.append(
            MapReduceFaultClassResult(
                name=name,
                completion_rate=rate,
                mean_cost=cost,
                mean_completion_time=mean_time,
                mean_interruptions=interruptions,
                mean_master_restarts=restarts,
                termination_counts=terms,
                cost_delta=cost - base_cost,
                completion_delta=rate - base_rate,
                time_delta=mean_time - base_time,
            )
        )
    return MapReduceChaosReport(
        master_bid=plan.master_bid.price,
        slave_bid=plan.slave_bid.price,
        num_slaves=plan.job.num_slaves,
        baseline_completion_rate=base_rate,
        baseline_mean_cost=base_cost,
        baseline_mean_completion_time=base_time,
        baseline_termination_counts=base_terms,
        n_starts=n_starts,
        seed=seed,
        results=tuple(results),
    )


#: Report arrays compared bitwise between the healthy and chaotic runs.
#: The counters' ``kernel_seconds`` and the scheduler stats are left out:
#: they time and count how shards ran, which chaos changes by design.
_PARITY_FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


@dataclass(frozen=True)
class WorkerChaosReport:
    """Outcome of one :func:`run_worker_chaos` comparison.

    The interesting bit is :attr:`bitwise_identical`: the scheduler's
    contract is that crashes, stalls, and speculative re-dispatch may
    change *when* shards run but never *what* they compute.
    """

    strategy: Strategy
    bid_price: float
    n_starts: int
    max_workers: int
    seed: int
    faults: WorkerFaults
    #: True when every report array matched the fault-free run exactly.
    bitwise_identical: bool
    #: Report fields (if any) that diverged from the fault-free run.
    mismatched_fields: Tuple[str, ...]
    healthy_seconds: float
    chaos_seconds: float
    #: Pool accounting from the chaotic run: crashes, respawns,
    #: speculations, dropped duplicates, quarantines.
    scheduler: "SchedulerStats"

    def table(self) -> str:
        s = self.scheduler
        verdict = (
            "IDENTICAL"
            if self.bitwise_identical
            else "DIVERGED: " + ", ".join(self.mismatched_fields)
        )
        return "\n".join(
            [
                f"worker chaos (seed {self.seed}): bid "
                f"${self.bid_price:.4f}/h ({self.strategy}), "
                f"{self.n_starts} starts on {self.max_workers} workers",
                f"faults: kill {self.faults.kill_rate:.0%}  "
                f"stall {self.faults.stall_rate:.0%} "
                f"@{self.faults.stall_seconds:.2f}s  "
                f"slow-start {self.faults.slow_start_rate:.0%}",
                f"healthy serial run {self.healthy_seconds:.2f}s; "
                f"chaotic pool run {self.chaos_seconds:.2f}s",
                f"pool: {s.dispatched} dispatches  {s.worker_crashes} "
                f"crashes  {s.workers_respawned} respawns  "
                f"{s.speculated} speculated  {s.duplicates_dropped} "
                f"dup-dropped  {s.quarantined} quarantined",
                f"results vs fault-free run: {verdict}",
            ]
        )


def run_worker_chaos(
    history: SpotPriceHistory,
    future: SpotPriceHistory,
    job: JobSpec,
    *,
    ondemand_price: float,
    strategy: Strategy = Strategy.PERSISTENT,
    seed: int = 0,
    n_starts: int = 8,
    max_workers: int = 2,
    kill_rate: float = 0.6,
    stall_rate: float = 0.3,
    stall_seconds: float = 1.5,
    slow_start_rate: float = 0.25,
) -> WorkerChaosReport:
    """Prove the scheduler's recovery guarantees on a real sweep.

    Computes one bid decision from ``history`` (as :func:`run_chaos`
    does), then evaluates it from ``n_starts`` start slots on ``future``
    twice: once serially with no faults, and once on the process pool
    with :class:`WorkerFaults(seed=seed)` killing, stalling, and
    slow-starting workers.  The two reports must match bitwise — the
    whole point of the work-stealing scheduler is that the failure
    schedule is invisible in the results.  Chaos turns benign after the
    fault plan's epoch cap, so the run terminates even at 100% rates.
    """
    strategy = normalize_strategy(strategy)
    if n_starts < 1:
        raise FaultError(f"n_starts must be >= 1, got {n_starts!r}")
    if max_workers < 1:
        raise FaultError(f"max_workers must be >= 1, got {max_workers!r}")

    client = BiddingClient(history, ondemand_price=ondemand_price)
    decision = client.respond(
        DecisionRequest(job=job, strategy=strategy, degrade=True)
    ).decision
    exec_strategy = (
        Strategy.ONE_TIME if strategy is Strategy.ONE_TIME else Strategy.PERSISTENT
    )

    span = max(1, future.n_slots // 2)
    starts = [
        min((i * span) // n_starts, future.n_slots - 1) for i in range(n_starts)
    ]
    traces = [future] * len(starts)

    t0 = time.perf_counter()
    healthy = run_sweep(
        traces,
        decision.price,
        job,
        strategy=exec_strategy,
        start_slots=starts,
    )
    healthy_seconds = time.perf_counter() - t0

    faults = WorkerFaults(
        kill_rate=kill_rate,
        stall_rate=stall_rate,
        stall_seconds=stall_seconds,
        slow_start_rate=slow_start_rate,
        seed=seed,
    )
    t0 = time.perf_counter()
    chaotic = run_sweep(
        traces,
        decision.price,
        job,
        strategy=exec_strategy,
        start_slots=starts,
        executor="process",
        max_workers=max_workers,
        worker_faults=faults,
    )
    chaos_seconds = time.perf_counter() - t0

    mismatched = tuple(
        name
        for name in _PARITY_FIELDS
        if not np.array_equal(getattr(healthy, name), getattr(chaotic, name))
    )
    return WorkerChaosReport(
        strategy=strategy,
        bid_price=decision.price,
        n_starts=n_starts,
        max_workers=max_workers,
        seed=seed,
        faults=faults,
        bitwise_identical=not mismatched,
        mismatched_fields=mismatched,
        healthy_seconds=healthy_seconds,
        chaos_seconds=chaos_seconds,
        scheduler=chaotic.scheduler,
    )
