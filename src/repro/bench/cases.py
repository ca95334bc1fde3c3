"""Canonical sweep-kernel benchmark workloads.

Each case pins a seeded synthetic workload — a floor-plus-spikes price
stack of the same shape the paper's experiments sweep — so successive
``BENCH_sweep.json`` snapshots measure the code, not the inputs.  The
*large* persistent case (1k-slot traces × a 256-bid grid) is the
acceptance workload for the event-driven kernels' speedup target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.types import Strategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..traces.history import SpotPriceHistory

__all__ = [
    "BenchCase",
    "ExtensionBenchCase",
    "MapReduceBenchCase",
    "SchedulerBenchCase",
    "ServeBenchCase",
    "CASES",
    "case_names",
    "quick_case_names",
    "select_cases",
]


@dataclass(frozen=True)
class BenchCase:
    """One reproducible kernel workload."""

    name: str
    strategy: Strategy
    n_traces: int
    n_slots: int
    n_bids: int
    work: float
    recovery_time: float
    slot_length: float
    seed: int
    #: Ragged traces: fraction of each trace left valid (1.0 = dense).
    min_valid_fraction: float = 1.0
    #: Included in ``repro-bid bench --quick`` (CI smoke).
    quick: bool = False

    def build(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Materialize ``(prices, bids, n_valid)`` for this case.

        Prices follow the familiar spot shape: a low floor most of the
        time with occasional price spikes; bids span the floor-to-spike
        range so the grid exercises never-running, always-running and
        frequently-interrupted lanes alike.
        """
        rng = np.random.default_rng(self.seed)
        floor = rng.uniform(0.02, 0.05, size=(self.n_traces, 1))
        prices = floor + rng.exponential(0.01, size=(self.n_traces, self.n_slots))
        spikes = rng.random((self.n_traces, self.n_slots)) < 0.08
        prices = np.where(
            spikes,
            prices + rng.uniform(0.2, 1.0, size=prices.shape),
            prices,
        )
        bids = np.linspace(0.02, 0.6, self.n_bids)
        n_valid: Optional[np.ndarray] = None
        if self.min_valid_fraction < 1.0:
            lo = max(1, int(self.n_slots * self.min_valid_fraction))
            n_valid = rng.integers(
                lo, self.n_slots + 1, size=self.n_traces
            ).astype(np.int64)
            mask = np.arange(self.n_slots)[None, :] >= n_valid[:, None]
            prices = np.where(mask, np.inf, prices)
        return prices, bids, n_valid

    @property
    def lane_slots(self) -> int:
        """Dense work volume: valid slots × bids (the O(S·T·B) measure)."""
        if self.min_valid_fraction >= 1.0:
            return self.n_traces * self.n_slots * self.n_bids
        _, _, n_valid = self.build()
        return int(n_valid.sum()) * self.n_bids

    @property
    def label(self) -> str:
        return self.strategy.value


@dataclass(frozen=True)
class MapReduceBenchCase:
    """One reproducible MapReduce plan-grid workload (§6.2 end-to-end).

    The grid crosses ``n_master_bids × n_slave_bids`` plans with
    ``n_pairs`` master/slave trace pairs, each evaluated from
    ``n_starts`` start slots — the shape of the Figure 7 / Table 4
    multi-start evaluation.  The reference timing is the scalar
    dual-market runner; the contender is the event-driven grid kernel.
    """

    name: str
    n_pairs: int
    n_starts: int
    n_slots: int
    n_master_bids: int
    n_slave_bids: int
    num_slaves: int
    #: Total cluster execution time t_s, hours.
    work: float
    recovery_time: float
    slot_length: float
    seed: int
    quick: bool = False

    @property
    def n_plans(self) -> int:
        return self.n_master_bids * self.n_slave_bids

    @property
    def n_runs(self) -> int:
        return self.n_pairs * self.n_starts

    # Aliases so MapReduce rows report through the same schema fields
    # (traces × slots × bids) as the single-request sweep cases.
    @property
    def n_traces(self) -> int:
        return self.n_runs

    @property
    def n_bids(self) -> int:
        return self.n_plans

    @property
    def label(self) -> str:
        return "mapreduce"

    def build(self) -> Tuple[List, List, List, List[int]]:
        """Materialize ``(plans, master_traces, slave_traces, starts)``."""
        from ..core.types import BidDecision, BidKind, MapReduceJobSpec, MapReducePlan

        rng = np.random.default_rng(self.seed)
        job = MapReduceJobSpec(
            execution_time=self.work,
            num_slaves=self.num_slaves,
            recovery_time=self.recovery_time,
            slot_length=self.slot_length,
        )
        # Bids span the floor-to-spike range so the grid mixes lanes
        # that never launch, always run, and restart frequently.
        plans = [
            MapReducePlan(
                job=job,
                master_bid=BidDecision(
                    price=float(mb), kind=BidKind.ONE_TIME, expected_cost=0.1
                ),
                slave_bid=BidDecision(
                    price=float(sb), kind=BidKind.PERSISTENT, expected_cost=0.1
                ),
                required_master_time=1.0,
                min_slaves=1,
            )
            for mb in np.linspace(0.04, 0.6, self.n_master_bids)
            for sb in np.linspace(0.04, 0.6, self.n_slave_bids)
        ]

        def trace() -> "SpotPriceHistory":
            floor = rng.uniform(0.02, 0.05)
            prices = floor + rng.exponential(0.01, size=self.n_slots)
            spikes = rng.random(self.n_slots) < 0.08
            prices = np.where(
                spikes, prices + rng.uniform(0.2, 1.0, size=self.n_slots), prices
            )
            from ..traces.history import SpotPriceHistory

            return SpotPriceHistory(
                prices=np.ascontiguousarray(prices),
                slot_length=self.slot_length,
            )

        pairs = [(trace(), trace()) for _ in range(self.n_pairs)]
        span = self.n_slots // 2
        start_grid = [(j * span) // self.n_starts for j in range(self.n_starts)]
        master_traces = [m for m, _ in pairs for _ in start_grid]
        slave_traces = [s for _, s in pairs for _ in start_grid]
        starts = start_grid * self.n_pairs
        return plans, master_traces, slave_traces, starts

    @property
    def lane_slots(self) -> int:
        """Dense work volume: plans × per-run budgets."""
        span = self.n_slots // 2
        per_pair = sum(
            self.n_slots - (j * span) // self.n_starts
            for j in range(self.n_starts)
        )
        return self.n_plans * self.n_pairs * per_pair


@dataclass(frozen=True)
class ServeBenchCase:
    """One reproducible serving workload (:mod:`repro.serve`).

    The *event* path is the warm table-backed decision service: tables
    and cache built once, then ``n_requests`` seeded decisions answered
    in-process through :meth:`~repro.serve.service.BidService.handle`.
    The *reference* is the pre-serving cost of the same answers — every
    request rebuilds the empirical distribution from the full history and
    runs the optimizer from scratch, exactly what a stateless batch
    client pays per question.  Both paths run the same optimizer code on
    the same history, so on-grid requests must agree bitwise.
    """

    name: str
    n_requests: int
    n_slots: int
    grid_shape: Tuple[int, int]
    ondemand_price: float
    slot_length: float
    seed: int
    on_grid_fraction: float = 0.5
    quick: bool = False

    # Aliases so serving rows report through the same schema fields
    # (traces × slots × bids) as the sweep cases: one market trace,
    # its history length, and one "bid" per served request.
    @property
    def n_traces(self) -> int:
        return 1

    @property
    def n_bids(self) -> int:
        return self.n_requests

    @property
    def lane_slots(self) -> int:
        """Work volume: decisions served."""
        return self.n_requests

    @property
    def label(self) -> str:
        return "serve"

    def build(self) -> Tuple["SpotPriceHistory", object, List[object]]:
        """Materialize ``(history, grid, requests)`` for this case."""
        from ..serve.loadgen import build_requests
        from ..serve.tables import default_grid
        from ..traces.history import SpotPriceHistory

        rng = np.random.default_rng(self.seed)
        floor = rng.uniform(0.02, 0.05)
        prices = floor + rng.exponential(0.01, size=self.n_slots)
        spikes = rng.random(self.n_slots) < 0.08
        prices = np.where(
            spikes, prices + rng.uniform(0.2, 1.0, size=self.n_slots), prices
        )
        history = SpotPriceHistory(
            prices=np.ascontiguousarray(prices), slot_length=self.slot_length
        )
        grid = default_grid(shape=self.grid_shape, slot_length=self.slot_length)
        requests = build_requests(
            self.n_requests,
            grid=grid,
            slot_length=self.slot_length,
            rng=rng,
            on_grid_fraction=self.on_grid_fraction,
        )
        return history, grid, requests


@dataclass(frozen=True)
class SchedulerBenchCase:
    """One reproducible work-stealing scheduler workload under a pinned
    straggler (:mod:`repro.scheduler`).

    Worker slot 0 stalls for ``stall_seconds`` on its first shard (a
    seeded :class:`~repro.resilience.faults.WorkerFaults` plan scoped to
    that slot); the other workers stay healthy.  The *reference* timing
    runs with speculation disabled — the batch waits the stall out — and
    the *event* timing is the same chaos with straggler re-dispatch on,
    so the gated speedup is the speculation machinery itself.  Both runs
    must return bitwise-identical shard results.
    """

    name: str
    n_shards: int
    max_workers: int
    #: Elements of seeded RNG work each shard reduces.
    shard_size: int
    stall_seconds: float
    straggler_factor: float
    straggler_min_seconds: float
    seed: int
    quick: bool = False

    # Aliases so scheduler rows report through the same schema fields
    # (traces × slots × bids) as the sweep cases: one "trace" per shard,
    # the shard's work volume as its slot count, one lane per shard.
    @property
    def n_traces(self) -> int:
        return self.n_shards

    @property
    def n_slots(self) -> int:
        return self.shard_size

    @property
    def n_bids(self) -> int:
        return 1

    @property
    def lane_slots(self) -> int:
        """Work volume: shard reductions executed."""
        return self.n_shards * self.shard_size

    @property
    def label(self) -> str:
        return "scheduler"

    def build(self) -> Tuple[List[Tuple[int, int, int]]]:
        """Materialize the shard payloads (a 1-tuple, like all cases)."""
        return ([(self.seed, i, self.shard_size) for i in range(self.n_shards)],)

    def faults(self) -> object:
        """The pinned-straggler fault schedule both timed runs share."""
        from ..resilience.faults import WorkerFaults

        return WorkerFaults(
            kill_rate=0.0,
            stall_rate=1.0,
            stall_seconds=self.stall_seconds,
            slow_start_rate=0.0,
            seed=self.seed,
            first_shards=1,
            max_chaos_epochs=1,
            only_workers=(0,),
        )


@dataclass(frozen=True)
class ExtensionBenchCase:
    """One reproducible extension-kernel workload
    (:mod:`repro.extensions.kernels`).

    The contender is the batched kernel named by ``kernel`` (a
    ``_EXT_KERNELS`` pair-table key); the reference timing is its retained
    ``*_reference`` scalar oracle on identical inputs.  The runner
    asserts the two lanes' result dicts compare bitwise equal before any
    speedup is reported — the same gate the sweep and MapReduce lanes
    pass.
    """

    name: str
    #: Pair-table key into ``repro.extensions.kernels._EXT_KERNELS``.
    kernel: str
    #: Observations in the fitted empirical price distribution.
    n_obs: int
    #: Candidate bid prices scanned.
    n_candidates: int
    work: float
    recovery_time: float
    slot_length: float
    seed: int
    #: On-demand fraction grid points (``portfolio_grid`` only).
    n_fractions: int = 0
    #: π̄ for the portfolio's on-demand leg (``portfolio_grid`` only).
    ondemand_price: float = 0.0
    quick: bool = False

    # Aliases so extension rows report through the same schema fields
    # (traces × slots × bids) as the sweep cases: one distribution, its
    # observation count, one lane per scanned cell.
    @property
    def n_traces(self) -> int:
        return 1

    @property
    def n_slots(self) -> int:
        return self.n_obs

    @property
    def n_bids(self) -> int:
        return self.n_candidates

    @property
    def lane_slots(self) -> int:
        """Work volume: grid cells evaluated."""
        return max(1, self.n_fractions) * self.n_candidates

    @property
    def label(self) -> str:
        return "extension"

    def build(self) -> Tuple[tuple, dict]:
        """Materialize ``(args, kwargs)`` for the kernel/oracle pair."""
        from ..core.distributions import EmpiricalPriceDistribution
        from ..core.types import JobSpec

        rng = np.random.default_rng(self.seed)
        floor = rng.uniform(0.02, 0.05)
        prices = floor + rng.exponential(0.01, size=self.n_obs)
        spikes = rng.random(self.n_obs) < 0.08
        prices = np.where(
            spikes, prices + rng.uniform(0.2, 1.0, size=self.n_obs), prices
        )
        dist = EmpiricalPriceDistribution(np.ascontiguousarray(prices))
        job = JobSpec(
            execution_time=self.work,
            recovery_time=self.recovery_time,
            slot_length=self.slot_length,
        )
        candidates = np.linspace(dist.lower, dist.upper, self.n_candidates)
        if self.kernel == "portfolio_grid":
            return (dist, candidates, job), {
                "ondemand_price": self.ondemand_price,
                "ondemand_fractions": np.linspace(0.0, 1.0, self.n_fractions),
            }
        return (dist, candidates, job), {}


AnyBenchCase = Union[
    BenchCase,
    ExtensionBenchCase,
    MapReduceBenchCase,
    SchedulerBenchCase,
    ServeBenchCase,
]

CASES: List[AnyBenchCase] = [
    BenchCase(
        name="persistent_large",
        strategy=Strategy.PERSISTENT,
        n_traces=24,
        n_slots=1000,
        n_bids=256,
        work=10.0,
        recovery_time=0.25,
        slot_length=1.0,
        seed=20150817,
    ),
    BenchCase(
        name="onetime_large",
        strategy=Strategy.ONE_TIME,
        n_traces=24,
        n_slots=1000,
        n_bids=256,
        work=4.0,
        recovery_time=0.0,
        slot_length=1.0,
        seed=20150818,
        quick=True,
    ),
    BenchCase(
        name="persistent_ragged",
        strategy=Strategy.PERSISTENT,
        n_traces=32,
        n_slots=800,
        n_bids=64,
        work=6.0,
        recovery_time=0.5,
        slot_length=1.0,
        seed=20150819,
        min_valid_fraction=0.25,
    ),
    BenchCase(
        name="persistent_small",
        strategy=Strategy.PERSISTENT,
        n_traces=16,
        n_slots=500,
        n_bids=96,
        work=5.0,
        recovery_time=0.25,
        slot_length=1.0,
        seed=20150820,
        quick=True,
    ),
    BenchCase(
        name="onetime_small",
        strategy=Strategy.ONE_TIME,
        n_traces=16,
        n_slots=1000,
        n_bids=128,
        work=2.0,
        recovery_time=0.0,
        slot_length=1.0,
        seed=20150821,
    ),
    # The Figure 7 acceptance workload for the batched MapReduce
    # kernels: a 24-plan bid grid × 3 trace pairs × 2 starts.
    MapReduceBenchCase(
        name="mapreduce_fig7_grid",
        n_pairs=3,
        n_starts=2,
        n_slots=600,
        n_master_bids=6,
        n_slave_bids=4,
        num_slaves=4,
        work=1.2,
        recovery_time=0.05,
        slot_length=1.0 / 12.0,
        seed=20150822,
    ),
    MapReduceBenchCase(
        name="mapreduce_multistart",
        n_pairs=1,
        n_starts=6,
        n_slots=400,
        n_master_bids=3,
        n_slave_bids=2,
        num_slaves=3,
        work=0.8,
        recovery_time=0.05,
        slot_length=1.0 / 12.0,
        seed=20150823,
        quick=True,
    ),
    # Serving acceptance workloads: warm-table decision latency (small,
    # CI smoke) and sustained decision throughput (the >=5k/s target).
    ServeBenchCase(
        name="serve_latency",
        n_requests=300,
        n_slots=2880,
        grid_shape=(16, 4),
        ondemand_price=1.5,
        slot_length=1.0 / 12.0,
        seed=20150824,
        quick=True,
    ),
    ServeBenchCase(
        name="serve_throughput",
        n_requests=2000,
        n_slots=2880,
        grid_shape=(32, 8),
        ondemand_price=1.5,
        slot_length=1.0 / 12.0,
        seed=20150825,
    ),
    # Extension-kernel acceptance workloads: the Section 8 risk scan on
    # a dense candidate grid, and the portfolio (fraction × bid) grid —
    # both gated on the >=10x speedup target and the bitwise check.
    ExtensionBenchCase(
        name="ext_risk_grid",
        kernel="risk_scan",
        n_obs=20000,
        n_candidates=4096,
        work=8.0,
        recovery_time=0.25,
        slot_length=1.0 / 12.0,
        seed=20150827,
        quick=True,
    ),
    ExtensionBenchCase(
        name="ext_portfolio",
        kernel="portfolio_grid",
        n_obs=8000,
        n_candidates=2048,
        n_fractions=64,
        work=8.0,
        recovery_time=0.25,
        slot_length=1.0 / 12.0,
        ondemand_price=1.5,
        seed=20150828,
    ),
    # The straggler-re-dispatch acceptance workload: a pinned stalled
    # worker, gated on how much speculation recovers of the stall.
    SchedulerBenchCase(
        name="sched_straggler",
        n_shards=8,
        max_workers=2,
        shard_size=20000,
        stall_seconds=0.75,
        straggler_factor=2.0,
        straggler_min_seconds=0.15,
        seed=20150826,
    ),
]

_BY_NAME: Dict[str, AnyBenchCase] = {case.name: case for case in CASES}


def case_names() -> List[str]:
    return [case.name for case in CASES]


def quick_case_names() -> List[str]:
    return [case.name for case in CASES if case.quick]


def select_cases(
    names: Optional[Sequence[str]] = None,
    *,
    quick: bool = False,
    pattern: Optional[str] = None,
) -> List[AnyBenchCase]:
    """Resolve a case selection.

    Precedence: explicit ``names`` beat ``pattern`` (an ``fnmatch``
    glob, e.g. ``"mapreduce_*"``), which beats the ``quick`` flag.
    Unknown names and patterns matching nothing both raise
    ``ValueError`` listing the available cases.
    """
    if names and pattern:
        raise ValueError("pass explicit case names or a pattern, not both")
    if names:
        missing = [n for n in names if n not in _BY_NAME]
        if missing:
            raise ValueError(
                f"unknown benchmark case(s) {missing}; "
                f"available: {', '.join(case_names())}"
            )
        return [_BY_NAME[n] for n in names]
    if pattern is not None:
        matched = [case for case in CASES if fnmatch(case.name, pattern)]
        if not matched:
            raise ValueError(
                f"pattern {pattern!r} matches no benchmark case; "
                f"available: {', '.join(case_names())}"
            )
        return matched
    if quick:
        return [case for case in CASES if case.quick]
    return list(CASES)
