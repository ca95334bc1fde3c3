"""Plan-grid evaluation: batch many MapReduce runs through one kernel.

:func:`run_plan_grid` is the batched counterpart of
:func:`~repro.mapreduce.runner.run_plan_on_traces`: it evaluates a grid
of plans against a set of runs — each run a (master trace, slave trace,
start slot) triple — in one kernel call, returning a
:class:`MapReduceGridResult` whose per-cell fields are bitwise
identical to the scalar runner's.

``kernel="event"`` (the default) runs the event-driven kernel;
``kernel="scalar"`` runs the scalar runner lane by lane — the oracle the
kernel is verified against, by the equivalence tests and by
``repro-bid bench``.

Process fan-out ships the stacked master/slave price matrices zero-copy
through two :class:`~repro.sweep.shm.SharedPriceStack` segments; the
per-chunk payload is just the two descriptors plus the chunk's small
lane arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.types import MapReducePlan
from ..errors import MarketError, PlanError, SweepExecutionError
from ..traces.history import SpotPriceHistory
from .kernels import TERMINATION_CODES, mapreduce_grid_kernel_event
from .runner import MapReduceRunResult, TerminationReason, run_plan_on_traces

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.faults import WorkerFaults
    from ..scheduler.journal import SweepJournal

__all__ = ["MapReduceGridResult", "run_plan_grid"]

_CODE_OF = {reason: code for code, reason in enumerate(TERMINATION_CODES)}


@dataclass(frozen=True)
class MapReduceGridResult:
    """Batched outcomes for an ``(n_plans, n_runs)`` grid.

    Array fields mirror :class:`~repro.mapreduce.runner.MapReduceRunResult`
    cell-for-cell; ``termination`` holds
    :data:`~repro.mapreduce.kernels.TERMINATION_CODES` indices.
    """

    plans: Tuple[MapReducePlan, ...]
    completed: np.ndarray
    completion_time: np.ndarray
    master_cost: np.ndarray
    slave_cost: np.ndarray
    slave_interruptions: np.ndarray
    master_restarts: np.ndarray
    termination: np.ndarray
    #: Which lane ran: "event" (the kernel) or "scalar" (the oracle).
    kernel: str
    #: Executed lane-events (event lane) or window lane-slots (scalar).
    slots_simulated: int

    @property
    def n_plans(self) -> int:
        return self.completed.shape[0]

    @property
    def n_runs(self) -> int:
        return self.completed.shape[1]

    @property
    def total_cost(self) -> np.ndarray:
        return self.master_cost + self.slave_cost

    def termination_reason(self, plan: int, run: int) -> TerminationReason:
        return TERMINATION_CODES[int(self.termination[plan, run])]

    def termination_counts(self, plan: int = 0) -> Dict[str, int]:
        """Per-reason run counts for one plan row (zero entries kept)."""
        codes = self.termination[plan]
        return {
            reason.value: int(np.count_nonzero(codes == code))
            for code, reason in enumerate(TERMINATION_CODES)
        }

    def result(self, plan: int, run: int) -> MapReduceRunResult:
        """The scalar-result view of one grid cell."""
        return MapReduceRunResult(
            completed=bool(self.completed[plan, run]),
            completion_time=float(self.completion_time[plan, run]),
            master_cost=float(self.master_cost[plan, run]),
            slave_cost=float(self.slave_cost[plan, run]),
            slave_interruptions=int(self.slave_interruptions[plan, run]),
            master_restarts=int(self.master_restarts[plan, run]),
            termination_reason=self.termination_reason(plan, run),
        )

    def results(self, plan: int = 0) -> List[MapReduceRunResult]:
        """All runs of one plan row as scalar results, in run order."""
        return [self.result(plan, run) for run in range(self.n_runs)]

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Array fields keyed like the kernel output (for comparisons)."""
        return {
            "completed": self.completed,
            "completion_time": self.completion_time,
            "master_cost": self.master_cost,
            "slave_cost": self.slave_cost,
            "slave_interruptions": self.slave_interruptions,
            "master_restarts": self.master_restarts,
            "termination": self.termination,
        }


def _as_sequence(value: Any, n_runs: int, what: str) -> List:
    if isinstance(value, (SpotPriceHistory, int, np.integer)):
        return [value] * n_runs
    seq = list(value)
    if len(seq) == 1:
        return seq * n_runs
    if len(seq) != n_runs:
        raise PlanError(
            f"{what} has {len(seq)} entries but the grid has {n_runs} runs"
        )
    return seq


def _stack_traces(
    traces: Sequence[SpotPriceHistory],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack unique trace objects into a +inf-padded matrix.

    Runs frequently share trace objects (multi-start evaluation reuses
    one future per start slot), so rows are deduplicated by identity.
    """
    row_of: Dict[int, int] = {}
    unique: List[SpotPriceHistory] = []
    index = np.empty(len(traces), dtype=np.int64)
    for j, trace in enumerate(traces):
        key = id(trace)
        if key not in row_of:
            row_of[key] = len(unique)
            unique.append(trace)
        index[j] = row_of[key]
    width = max(t.n_slots for t in unique)
    matrix = np.full((len(unique), width), np.inf)
    n_valid = np.empty(len(unique), dtype=np.int64)
    for row, trace in enumerate(unique):
        matrix[row, : trace.n_slots] = trace.prices
        n_valid[row] = trace.n_slots
    return matrix, n_valid, index


def _grid_worker(payload: Tuple[Any, ...]) -> Dict[str, Any]:
    """Process-pool entry: attach the shared stacks, run one lane chunk."""
    from ..sweep.shm import open_stack

    m_desc, s_desc, lanes, slot_length, cap = payload
    m_prices, _ = open_stack(m_desc)
    s_prices, _ = open_stack(s_desc)
    return mapreduce_grid_kernel_event(
        m_prices,
        s_prices,
        slot_length=slot_length,
        max_master_restarts=cap,
        **lanes,
    )


def _merge_chunks(chunks: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    merged = {
        key: np.concatenate([c[key] for c in chunks])
        for key in chunks[0]
        if key != "slots_simulated"
    }
    merged["slots_simulated"] = sum(int(c["slots_simulated"]) for c in chunks)
    return merged


def run_plan_grid(
    plans: Union[MapReducePlan, Sequence[MapReducePlan]],
    master_traces: Union[SpotPriceHistory, Sequence[SpotPriceHistory]],
    slave_traces: Union[SpotPriceHistory, Sequence[SpotPriceHistory]],
    *,
    start_slots: Union[int, Sequence[int]] = 0,
    max_slots: Optional[int] = None,
    max_master_restarts: int = 50,
    kernel: str = "event",
    max_workers: Optional[int] = None,
    journal: "Union[None, str, os.PathLike, SweepJournal]" = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> MapReduceGridResult:
    """Evaluate every (plan, run) pair of a MapReduce grid in one batch.

    ``plans`` (all sharing one slot length) crosses with ``n_runs`` runs
    described by ``master_traces`` / ``slave_traces`` / ``start_slots``
    (scalars broadcast).  Per-cell semantics, budgets and float results
    are exactly those of :func:`~repro.mapreduce.runner.run_plan_on_traces`
    with the same ``max_slots`` / ``max_master_restarts``.

    ``kernel`` picks "event" (the batched kernel, the default) or
    "scalar" (the oracle, lane by lane).  Every lane rejects the same
    bad arguments before any work: ``max_workers < 1`` with
    :class:`~repro.errors.SweepExecutionError`, as :func:`run_sweep`
    does; ``max_slots < 1``, a negative start slot or
    ``max_master_restarts < 0`` with :class:`~repro.errors.PlanError`.

    On the event lane with ``max_workers > 1``, a ``journal`` or
    ``worker_faults``, lane chunks fan out through the work-stealing
    scheduler (:func:`repro.scheduler.run_shards`) — dynamic dispatch,
    straggler speculation, crash respawn — and the two price stacks
    travel zero-copy via shared memory.  ``journal`` (a path or
    :class:`~repro.scheduler.journal.SweepJournal`) makes the fan-out
    crash-consistent: finished chunks are fsync'd to disk and a re-run
    with the same grid resumes, recomputing only unfinished chunks.
    ``worker_faults`` injects seeded process-level chaos into the pool
    (results stay bitwise identical to the fault-free run).
    """
    if kernel not in ("event", "scalar"):
        raise MarketError(
            f"unknown MapReduce kernel {kernel!r}; choose 'event' or 'scalar'"
        )
    if max_workers is not None and max_workers < 1:
        raise SweepExecutionError(
            f"max_workers must be >= 1, got {max_workers!r}"
        )
    if max_slots is not None and max_slots < 1:
        raise PlanError(f"max_slots must be >= 1, got {max_slots!r}")
    if max_master_restarts < 0:
        raise PlanError(
            f"max_master_restarts must be >= 0, got {max_master_restarts!r}"
        )
    plan_list: List[MapReducePlan] = (
        [plans] if isinstance(plans, MapReducePlan) else list(plans)
    )
    if not plan_list:
        raise PlanError("need at least one plan to evaluate")
    for plan in plan_list:
        if not isinstance(plan, MapReducePlan):
            raise PlanError(f"expected a MapReducePlan, got {type(plan).__name__}")
    slot_length = plan_list[0].job.slot_length
    if any(p.job.slot_length != slot_length for p in plan_list):
        raise PlanError("all plans in a grid must share one slot length")

    if isinstance(master_traces, SpotPriceHistory):
        n_runs = (
            len(list(slave_traces))
            if not isinstance(slave_traces, SpotPriceHistory)
            else (
                len(list(start_slots))
                if not isinstance(start_slots, (int, np.integer))
                else 1
            )
        )
    else:
        n_runs = len(list(master_traces))
    m_list = _as_sequence(master_traces, n_runs, "master_traces")
    s_list = _as_sequence(slave_traces, n_runs, "slave_traces")
    starts = [int(s) for s in _as_sequence(start_slots, n_runs, "start_slots")]

    budgets = np.empty(n_runs, dtype=np.int64)
    for j, (m_hist, s_hist, start) in enumerate(zip(m_list, s_list, starts)):
        if start < 0:
            raise PlanError(f"start_slot must be >= 0, got {start!r}")
        if (
            m_hist.slot_length != slot_length
            or s_hist.slot_length != slot_length
        ):
            raise PlanError(
                "master/slave trace slot lengths must match the job's slot length"
            )
        available = min(m_hist.n_slots - start, s_hist.n_slots - start)
        if available < 1:
            raise PlanError("start_slot leaves no future slots to simulate")
        budgets[j] = available if max_slots is None else min(max_slots, available)

    n_plans = len(plan_list)
    if kernel == "scalar":
        return _run_scalar(
            plan_list, m_list, s_list, starts, max_slots, max_master_restarts
        )

    m_matrix, m_valid, m_index = _stack_traces(m_list)
    s_matrix, s_valid, s_index = _stack_traces(s_list)
    lanes = {
        "lane_mrow": np.tile(m_index, n_plans),
        "lane_srow": np.tile(s_index, n_plans),
        "lane_start": np.tile(np.asarray(starts, dtype=np.int64), n_plans),
        "lane_budget": np.tile(budgets, n_plans),
        "lane_master_bid": np.repeat(
            [p.master_bid.price for p in plan_list], n_runs
        ),
        "lane_slave_bid": np.repeat(
            [p.slave_bid.price for p in plan_list], n_runs
        ),
        "lane_slaves": np.repeat(
            np.asarray([p.job.num_slaves for p in plan_list], dtype=np.int64),
            n_runs,
        ),
        "lane_work": np.repeat(
            [p.job.slaves_spec.per_instance_work for p in plan_list], n_runs
        ),
        "lane_recovery": np.repeat(
            [p.job.recovery_time for p in plan_list], n_runs
        ),
    }
    n_lanes = n_plans * n_runs

    # Process fan-out is explicit opt-in: the caller asked for it, so
    # honour it even on small grids (tests exercise tiny fan-outs).
    fan_out = (
        (max_workers is not None and max_workers > 1)
        or worker_faults is not None
        or journal is not None
    )
    if fan_out:
        raw = _run_fanout(
            m_matrix, m_valid, s_matrix, s_valid, lanes,
            slot_length, max_master_restarts,
            max_workers if max_workers is not None else 1,
            journal, worker_faults,
        )
    else:
        raw = mapreduce_grid_kernel_event(
            m_matrix,
            s_matrix,
            slot_length=slot_length,
            max_master_restarts=max_master_restarts,
            **lanes,
        )

    def grid(key: str) -> np.ndarray:
        return raw[key].reshape(n_plans, n_runs)

    return MapReduceGridResult(
        plans=tuple(plan_list),
        completed=grid("completed"),
        completion_time=grid("completion_time"),
        master_cost=grid("master_cost"),
        slave_cost=grid("slave_cost"),
        slave_interruptions=grid("slave_interruptions"),
        master_restarts=grid("master_restarts"),
        termination=grid("termination"),
        kernel="event",
        slots_simulated=int(raw["slots_simulated"]),
    )


def _run_scalar(
    plan_list: Sequence[MapReducePlan],
    m_list: Sequence[SpotPriceHistory],
    s_list: Sequence[SpotPriceHistory],
    starts: Sequence[int],
    max_slots: Optional[int],
    max_master_restarts: int,
) -> MapReduceGridResult:
    """The oracle path: the scalar runner, lane by lane."""
    n_plans, n_runs = len(plan_list), len(m_list)
    shape = (n_plans, n_runs)
    completed = np.zeros(shape, dtype=bool)
    completion_time = np.full(shape, np.nan)
    master_cost = np.zeros(shape)
    slave_cost = np.zeros(shape)
    interruptions = np.zeros(shape, dtype=np.int64)
    restarts = np.zeros(shape, dtype=np.int64)
    termination = np.zeros(shape, dtype=np.int8)
    slots = 0
    for i, plan in enumerate(plan_list):
        for j in range(n_runs):
            cell = run_plan_on_traces(
                plan,
                m_list[j],
                s_list[j],
                start_slot=starts[j],
                max_slots=max_slots,
                max_master_restarts=max_master_restarts,
            )
            completed[i, j] = cell.completed
            completion_time[i, j] = cell.completion_time
            master_cost[i, j] = cell.master_cost
            slave_cost[i, j] = cell.slave_cost
            interruptions[i, j] = cell.slave_interruptions
            restarts[i, j] = cell.master_restarts
            termination[i, j] = _CODE_OF[cell.termination_reason]
            avail = min(
                m_list[j].n_slots - starts[j], s_list[j].n_slots - starts[j]
            )
            slots += avail if max_slots is None else min(max_slots, avail)
    return MapReduceGridResult(
        plans=tuple(plan_list),
        completed=completed,
        completion_time=completion_time,
        master_cost=master_cost,
        slave_cost=slave_cost,
        slave_interruptions=interruptions,
        master_restarts=restarts,
        termination=termination,
        kernel="scalar",
        slots_simulated=slots,
    )


def _run_fanout(
    m_matrix: np.ndarray,
    m_valid: np.ndarray,
    s_matrix: np.ndarray,
    s_valid: np.ndarray,
    lanes: Dict[str, np.ndarray],
    slot_length: float,
    max_master_restarts: int,
    max_workers: int,
    journal: "Union[None, str, os.PathLike, SweepJournal]" = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> Dict[str, Any]:
    """Chunk lanes over the scheduler pool; stacks travel via shm."""
    from ..scheduler import run_shards
    from ..sweep.engine import (
        _deserialize_kernel_result,
        _serialize_kernel_result,
    )
    from ..sweep.shm import SharedPriceStack

    n_lanes = lanes["lane_mrow"].size
    # More chunks than workers gives the work-stealing scheduler slack:
    # a straggling worker holds back one small chunk, not a statically
    # assigned slice; chunks stay big enough to keep the vectorized
    # inner loops wide.
    n_chunks = min(n_lanes, max(2, 4 * max_workers))
    bounds = np.linspace(0, n_lanes, n_chunks + 1).astype(np.int64)
    spans = [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    with SharedPriceStack(m_matrix, m_valid) as m_stack, SharedPriceStack(
        s_matrix, s_valid
    ) as s_stack:
        payloads = [
            (
                m_stack.descriptor,
                s_stack.descriptor,
                {key: arr[lo:hi] for key, arr in lanes.items()},
                slot_length,
                max_master_restarts,
            )
            for lo, hi in spans
        ]
        sched = run_shards(
            _grid_worker,
            payloads,
            max_workers=max_workers,
            keys=[f"lanes:{lo}:{hi}" for lo, hi in spans],
            labels=[f"lanes [{lo}, {hi})" for lo, hi in spans],
            journal=journal,
            signature={
                "kind": "mapreduce.grid",
                # Kept in the signature existing journals were written
                # with, so they still resume.
                "kernel": "event",
                "n_lanes": int(n_lanes),
                "n_chunks": len(spans),
                "slot_length": slot_length,
                "max_master_restarts": max_master_restarts,
            },
            serialize=_serialize_kernel_result,
            deserialize=_deserialize_kernel_result,
            worker_faults=worker_faults,
        )
    return _merge_chunks(sched.results)
