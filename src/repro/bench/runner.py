"""Benchmark execution: each batched kernel against its scalar oracle.

Every case runs a batched kernel (the "event" lane) and the scalar
oracle that specifies it (the "reference" lane) on identical inputs —
the sweep kernels against :mod:`repro.market.fastpath` cell by cell,
the MapReduce grid kernel against
:func:`~repro.mapreduce.runner.run_plan_on_traces`, each Section 8
kernel against its ``*_reference`` oracle — takes the best wall time
over ``repeats`` runs (minimum — the least-noise estimator for
CPU-bound work) after one untimed warmup (so cache and allocator
effects never pollute the timings), and checks the two result sets are
bitwise identical before any number is reported.  The serve and
scheduler cases compare a fast path with its slow path the same way.
A benchmark that reports a speedup for a kernel producing different
answers would be worse than no benchmark at all.

The report schema is versioned (``repro.bench/1``) so future trajectory
points remain machine-readable next to this one.
"""

from __future__ import annotations

import functools
import os
import platform
import statistics
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.types import Strategy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..mapreduce.grid import MapReduceGridResult
from ..market.fastpath import (
    fast_onetime_outcome,
    fast_persistent_outcome,
    outcome_grid,
)
from ..sweep.kernels import onetime_sweep_kernel, persistent_sweep_kernel
from .cases import (
    BenchCase,
    ExtensionBenchCase,
    MapReduceBenchCase,
    SchedulerBenchCase,
    ServeBenchCase,
    select_cases,
)

__all__ = ["SCHEMA", "run_benchmarks"]

SCHEMA = "repro.bench/1"

#: Result fields that must match bitwise between a kernel and its oracle.
_FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


def _machine_info() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _kernel_callable(case: BenchCase, reference: bool) -> Callable[..., dict]:
    """One lane of a sweep case: the event kernel, or its scalar oracle
    run cell by cell (:func:`~repro.market.fastpath.outcome_grid`)."""
    kwargs = {"work": case.work, "slot_length": case.slot_length}
    if case.strategy is Strategy.ONE_TIME:
        kernel: Callable[..., dict] = onetime_sweep_kernel
        oracle: Callable[..., Any] = fast_onetime_outcome
    else:
        kernel, oracle = persistent_sweep_kernel, fast_persistent_outcome
        kwargs["recovery_time"] = case.recovery_time

    fn: Callable[..., dict] = (
        functools.partial(outcome_grid, oracle) if reference else kernel
    )

    def run(
        prices: np.ndarray,
        bids: np.ndarray,
        n_valid: Optional[np.ndarray],
    ) -> dict:
        return fn(prices, bids, n_valid=n_valid, **kwargs)

    return run


def _time_kernel(
    run: Callable[..., dict], inputs: Sequence[object], repeats: int
) -> Tuple[float, List[float], Optional[dict]]:
    """Best-of-``repeats`` wall time, per-repeat times, last result.

    One untimed warmup run precedes the timed loop so one-time costs —
    allocator and cache warm-up — never land in a timed repeat.
    """
    run(*inputs)
    times: List[float] = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run(*inputs)
        times.append(time.perf_counter() - started)
    return min(times), times, result


def _bitwise_equal(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[f], b[f], equal_nan=True) for f in _FIELDS)


def _mapreduce_callable(
    case: MapReduceBenchCase, reference: bool
) -> "Callable[..., MapReduceGridResult]":
    from ..mapreduce.grid import run_plan_grid

    kernel = "scalar" if reference else "event"

    def run(
        plans: Any,
        master_traces: Any,
        slave_traces: Any,
        starts: Any,
    ) -> "MapReduceGridResult":
        return run_plan_grid(
            plans,
            master_traces,
            slave_traces,
            start_slots=starts,
            kernel=kernel,
        )

    return run


def _grids_bitwise_equal(
    a: "MapReduceGridResult", b: "MapReduceGridResult"
) -> bool:
    ad, bd = a.to_dict(), b.to_dict()
    return all(np.array_equal(ad[k], bd[k], equal_nan=True) for k in ad)


def _extension_callable(
    case: ExtensionBenchCase, reference: bool
) -> Callable[..., dict]:
    """One lane of an extension-kernel case.

    Resolves the (kernel, oracle) pair from the pair table in
    :mod:`repro.extensions.kernels`.
    """
    from ..extensions.kernels import extension_kernel_pair

    kernel, oracle = extension_kernel_pair(case.kernel)
    fn = oracle if reference else kernel

    def run(args: tuple, kwargs: dict) -> dict:
        return fn(*args, **kwargs)

    return run


def _ext_bitwise_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        np.array_equal(a[k], b[k], equal_nan=True) for k in a
    )


def _sched_shard(payload: Tuple[int, int, int]) -> float:
    """Seeded reduction each scheduler-bench shard computes.

    Pure function of the payload, so where (and how often) a shard runs
    cannot change its bits — the property the bitwise gate checks.
    """
    seed, index, size = payload
    rng = np.random.default_rng([seed, index])
    return float(np.sort(rng.random(size)).sum())


def _scheduler_callable(
    case: SchedulerBenchCase, speculate: bool
) -> Callable[..., object]:
    from ..scheduler import run_shards

    faults = case.faults()

    def run(payloads: Any) -> object:
        return run_shards(
            _sched_shard,
            payloads,
            max_workers=case.max_workers,
            speculate=speculate,
            straggler_factor=case.straggler_factor,
            straggler_min_seconds=case.straggler_min_seconds,
            worker_faults=faults,
        )

    return run


def _serve_reference_callable(
    case: ServeBenchCase,
) -> Callable[..., List[object]]:
    """The cold pre-serving path: rebuild distribution per request."""
    from ..core.distributions import EmpiricalPriceDistribution
    from ..core.onetime import optimal_onetime_bid
    from ..core.persistent import optimal_persistent_bid
    from ..errors import InfeasibleBidError

    def run(history: Any, grid: Any, requests: Any) -> List[object]:
        decisions: List[object] = []
        for request in requests:
            dist = EmpiricalPriceDistribution(history.prices)
            try:
                if request.strategy is Strategy.ONE_TIME:
                    decision = optimal_onetime_bid(
                        dist, request.job, ondemand_price=case.ondemand_price
                    )
                else:
                    decision = optimal_persistent_bid(
                        dist, request.job, ondemand_price=case.ondemand_price
                    )
            except InfeasibleBidError:
                decision = None
            decisions.append(decision)
        return decisions

    return run


def _serve_event_callable(
    case: ServeBenchCase, history: Any, grid: Any
) -> Callable[..., Tuple[List[object], List[float]]]:
    """The warm served path: tables built once, requests then handled.

    Table construction happens here, outside the timed region — that is
    the amortized setup serving exists to pay once.  Each timed run
    starts with a cold *cache* over the warm tables so repeat timings
    stay comparable; the run returns ``(responses, per-request
    latencies in ms)``.
    """
    from ..market.price_sources import TracePriceSource
    from ..serve.cache import DecisionCache
    from ..serve.ingest import MarketState
    from ..serve.service import BidService

    state = MarketState(
        TracePriceSource(history),
        initial_history=history,
        ondemand_price=case.ondemand_price,
        grid=grid,
    )
    service = BidService(
        state,
        cache=DecisionCache(capacity=case.n_requests + 1),
        stale_after=max(1, history.n_slots),
    )

    def run(
        _history: Any, _grid: Any, requests: Any
    ) -> Tuple[List[object], List[float]]:
        service.cache.clear()
        responses: List[object] = []
        latencies_ms: List[float] = []
        for request in requests:
            started = time.perf_counter()
            responses.append(service.handle(request))
            latencies_ms.append((time.perf_counter() - started) * 1e3)
        return responses, latencies_ms

    return run


def _serve_bitwise_equal(
    case: ServeBenchCase,
    grid: Any,
    requests: Any,
    reference: List[object],
    responses: List[object],
) -> bool:
    """On-grid served decisions must match the cold path bitwise.

    Off-grid requests snap to the nearest bucket (the documented
    interpolation contract) and infeasible buckets degrade, so only
    feasible exact-grid-point requests participate.
    """
    ts_axis = set(grid.execution_times)
    tr_axis = set(grid.recovery_times)
    checked = False
    for request, cold, served in zip(requests, reference, responses):
        if (
            request.job.execution_time not in ts_axis
            or request.job.recovery_time not in tr_axis
        ):
            continue
        if cold is None or served.decision.degraded:
            continue
        checked = True
        if served.decision != cold:
            return False
    return checked


def _throughput(
    case: BenchCase, lane_slots: int, wall: float, times: Sequence[float]
) -> Dict[str, object]:
    return {
        "wall_seconds": wall,
        "median_seconds": statistics.median(times),
        "repeat_seconds": list(times),
        "slots_per_sec": lane_slots / wall if wall > 0 else float("inf"),
        "lanes_per_sec": (
            case.n_traces * case.n_bids / wall if wall > 0 else float("inf")
        ),
    }


def run_benchmarks(
    *,
    cases: Optional[Sequence[str]] = None,
    quick: bool = False,
    pattern: Optional[str] = None,
    repeats: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the benchmark suite and return the ``repro.bench/1`` report.

    ``repeats`` defaults to 5 in quick mode (the cases are small and
    min-of-many suppresses CI timer noise) and 3 otherwise.  ``pattern``
    selects cases by glob (see :func:`~repro.bench.cases.select_cases`).
    ``progress`` (if given) receives one line per finished case.
    """
    selected = select_cases(cases, quick=quick, pattern=pattern)
    if repeats is None:
        repeats = 5 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")

    rows: List[Dict[str, object]] = []
    for case in selected:
        inputs = case.build()
        lane_slots = case.lane_slots
        serve_extras: Optional[Dict[str, float]] = None
        if isinstance(case, MapReduceBenchCase):
            ref_wall, ref_times, ref_result = _time_kernel(
                _mapreduce_callable(case, reference=True), inputs, repeats
            )
            event_wall, event_times, event_result = _time_kernel(
                _mapreduce_callable(case, reference=False), inputs, repeats
            )
            equal = _grids_bitwise_equal(ref_result, event_result)
            events = event_result.slots_simulated
        elif isinstance(case, ExtensionBenchCase):
            ref_wall, ref_times, ref_result = _time_kernel(
                _extension_callable(case, reference=True), inputs, repeats
            )
            event_wall, event_times, event_result = _time_kernel(
                _extension_callable(case, reference=False), inputs, repeats
            )
            equal = _ext_bitwise_equal(ref_result, event_result)
            events = lane_slots
        elif isinstance(case, SchedulerBenchCase):
            # Reference = wait the pinned straggler out; event = the
            # same fault schedule with speculative re-dispatch on.
            ref_wall, ref_times, ref_result = _time_kernel(
                _scheduler_callable(case, speculate=False), inputs, repeats
            )
            event_wall, event_times, event_result = _time_kernel(
                _scheduler_callable(case, speculate=True), inputs, repeats
            )
            equal = ref_result.results == event_result.results
            events = event_result.stats.dispatched
        elif isinstance(case, ServeBenchCase):
            history, grid, requests = inputs
            ref_wall, ref_times, ref_result = _time_kernel(
                _serve_reference_callable(case), inputs, repeats
            )
            event_wall, event_times, event_result = _time_kernel(
                _serve_event_callable(case, history, grid), inputs, repeats
            )
            responses, latencies_ms = event_result
            equal = _serve_bitwise_equal(
                case, grid, requests, ref_result, responses
            )
            events = len(responses)
            ordered = sorted(latencies_ms)
            serve_extras = {
                "p50_ms": ordered[len(ordered) // 2],
                "p99_ms": ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)],
                "qps": events / event_wall if event_wall > 0 else float("inf"),
            }
        else:
            ref_wall, ref_times, ref_result = _time_kernel(
                _kernel_callable(case, reference=True), inputs, repeats
            )
            event_wall, event_times, event_result = _time_kernel(
                _kernel_callable(case, reference=False), inputs, repeats
            )
            equal = _bitwise_equal(ref_result, event_result)
            events = int(event_result["slots_simulated"])
        row = {
            "name": case.name,
            "strategy": case.label,
            "kernel": "event",
            "n_traces": case.n_traces,
            "n_slots": case.n_slots,
            "n_bids": case.n_bids,
            "lane_slots": lane_slots,
            "repeats": repeats,
            "reference": _throughput(case, lane_slots, ref_wall, ref_times),
            "event": _throughput(case, lane_slots, event_wall, event_times),
            "speedup": ref_wall / event_wall if event_wall > 0 else float("inf"),
            "events_processed": events,
            "bitwise_equal": bool(equal),
        }
        if serve_extras is not None:
            row["serve"] = serve_extras
        rows.append(row)
        if progress is not None:
            progress(
                f"{case.name}: ref {ref_wall * 1e3:.1f}ms, "
                f"event {event_wall * 1e3:.1f}ms, "
                f"speedup {row['speedup']:.2f}x, "
                f"bitwise={'OK' if equal else 'MISMATCH'}"
            )
    return {
        "schema": SCHEMA,
        # Report metadata, not simulation state — results never depend
        # on it, so the determinism rule does not apply here.
        "created_unix": time.time(),  # repro: noqa(RB101)
        "machine": _machine_info(),
        "cases": rows,
    }
