"""The batched backtest engine: grids of bids × stacks of traces.

:func:`run_sweep` is the front door.  It normalizes heterogeneous trace
inputs (histories, arrays, ragged lengths, per-trace start slots) into a
padded price matrix, cuts it into shards for the event-driven kernels in
:mod:`repro.sweep.kernels`, runs them through
:func:`repro.scheduler.run_shards` — in this process, serially or on
threads, or on its fault-tolerant process pool — and assembles a
:class:`~repro.sweep.report.SweepReport` whose cells are bitwise
identical to the scalar :mod:`repro.market.fastpath` oracle.
"""

from __future__ import annotations

import os
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.types import JobSpec, Strategy, normalize_strategy
from ..errors import MarketError, SpecError
from .kernels import onetime_sweep_kernel, persistent_sweep_kernel
from .report import SweepCounters, SweepReport
from .shm import SharedPriceStack, open_stack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.faults import WorkerFaults
    from ..scheduler.journal import SweepJournal

__all__ = ["run_sweep"]

#: Result keys copied from a kernel dict into the report, in field order.
_FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


def _trace_prices(trace: object, index: int) -> np.ndarray:
    """Extract trace ``index``'s 1-D float price array from a history or
    array-like.

    Every price must be finite and non-negative: the kernels would
    silently reject a NaN slot, bill a negative one, and could not tell
    a raw ``+inf`` from the stack's own padding.
    """
    prices = np.asarray(getattr(trace, "prices", trace), dtype=float)
    if prices.ndim != 1 or prices.size == 0:
        raise MarketError("each trace must be a non-empty 1-D price array")
    # NaN fails both comparisons, so two reductions cover every bad slot.
    if not (prices.min() >= 0.0 and prices.max() < np.inf):
        slot = int(np.flatnonzero(~(np.isfinite(prices) & (prices >= 0.0)))[0])
        raise MarketError(
            f"trace {index} has price {float(prices[slot])!r} at slot {slot}; "
            "prices must be finite and non-negative"
        )
    return prices


def _as_trace_list(traces: Union[object, Sequence[object]]) -> List[object]:
    """Normalize the heterogeneous ``traces`` argument to a list."""
    if hasattr(traces, "prices") or (
        isinstance(traces, np.ndarray) and traces.ndim == 1
    ):
        traces = [traces]
    seq = list(traces)
    if not seq:
        raise MarketError("need at least one trace to sweep")
    return seq


def _stack_traces(
    traces: Sequence[object],
    start_slots: Union[int, Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice, pad and stack traces into ``(matrix, n_valid)``.

    Prices are validated before padding.  Ragged rows (different
    lengths or start slots) are padded with ``+inf`` — never accepted
    by any finite bid — and their true lengths recorded in ``n_valid``.
    """
    seq = list(traces)
    rows: List[np.ndarray] = []
    if isinstance(start_slots, (int, np.integer)):
        starts = [int(start_slots)] * len(seq)
    else:
        starts = [int(s) for s in start_slots]
        if len(starts) != len(seq):
            raise MarketError(
                f"start_slots has {len(starts)} entries for {len(seq)} traces"
            )
    for index, (trace, start) in enumerate(zip(seq, starts)):
        prices = _trace_prices(trace, index)
        if not 0 <= start < prices.size:
            raise MarketError(
                f"start_slot {start} out of range for a {prices.size}-slot trace"
            )
        rows.append(prices[start:])
    n_valid = np.asarray([row.size for row in rows], dtype=np.int64)
    width = int(n_valid.max())
    matrix = np.full((len(rows), width), np.inf)
    for i, row in enumerate(rows):
        matrix[i, : row.size] = row
    return matrix, n_valid


def _slot_length_of(traces: Union[object, Sequence[object]], job: JobSpec) -> None:
    """Reject histories whose slot length disagrees with the job's."""
    seq = [traces] if hasattr(traces, "prices") else traces
    try:
        iterator: Iterable[object] = iter(seq)  # type: ignore[arg-type]
    except TypeError:
        return
    for trace in iterator:
        slot = getattr(trace, "slot_length", None)
        if slot is not None and slot != job.slot_length:
            raise MarketError(
                f"trace slot length {slot!r} differs from the job's "
                f"slot length {job.slot_length!r}"
            )


def _resolve_payload(payload: Tuple[Any, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize a chunk payload into ``(prices, n_valid)`` arrays.

    ``("inline", prices, n_valid)`` carries the arrays by value (serial
    and thread execution);  ``("shm", descriptor, lo, hi)`` maps the
    shared segment and slices rows ``[lo, hi)`` without copying.
    """
    kind = payload[0]
    if kind == "shm":
        _, descriptor, lo, hi = payload
        prices, n_valid = open_stack(descriptor)
        return prices[lo:hi], n_valid[lo:hi]
    if kind == "inline":
        _, prices, n_valid = payload
        return prices, n_valid
    raise MarketError(f"unknown chunk payload kind {kind!r}")


def _run_kernel_chunk(args: Tuple[Any, ...]) -> dict:
    """Top-level (picklable) kernel dispatcher: the shard function
    :func:`run_sweep` hands to :func:`repro.scheduler.run_shards`."""
    strategy_value, payload, bids, work, recovery_time, slot_length = args
    prices, n_valid = _resolve_payload(payload)
    # The kernels are module globals looked up at call time, so a
    # function swapped in at the module attribute is the one that runs.
    if Strategy(strategy_value) is Strategy.ONE_TIME:
        return onetime_sweep_kernel(
            prices, bids, work=work, slot_length=slot_length, n_valid=n_valid
        )
    return persistent_sweep_kernel(
        prices,
        bids,
        work=work,
        recovery_time=recovery_time,
        slot_length=slot_length,
        n_valid=n_valid,
    )


def _serialize_kernel_result(result: dict) -> dict:
    """Kernel result dict → JSON-safe journal payload (dtypes preserved)."""
    payload = {}
    for key, value in result.items():
        if isinstance(value, np.ndarray):
            payload[key] = {"data": value.tolist(), "dtype": str(value.dtype)}
        else:
            payload[key] = value
    return payload


def _deserialize_kernel_result(payload: dict) -> dict:
    """Inverse of :func:`_serialize_kernel_result` — bitwise round-trip
    (JSON floats use shortest round-trip repr)."""
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict) and "dtype" in value:
            out[key] = np.asarray(value["data"], dtype=value["dtype"])
        else:
            out[key] = value
    return out


def _failure_placeholder(n_bids: int) -> dict:
    """The row recorded for a permanently failed trace: NaN costs/times,
    ``completed=False`` — unmistakably "no data", not "ran and lost"."""
    return {
        "completed": np.zeros((1, n_bids), dtype=bool),
        "cost": np.full((1, n_bids), np.nan),
        "completion_time": np.full((1, n_bids), np.nan),
        "running_time": np.full((1, n_bids), np.nan),
        "idle_time": np.full((1, n_bids), np.nan),
        "recovery_time_used": np.full((1, n_bids), np.nan),
        "interruptions": np.zeros((1, n_bids), dtype=np.int64),
        "slots_simulated": 0,
    }


def run_sweep(
    traces: Union[object, Sequence[object]],
    bids: Union[float, Sequence[float], np.ndarray],
    job: JobSpec,
    *,
    strategy: Strategy = Strategy.PERSISTENT,
    start_slots: Union[int, Sequence[int]] = 0,
    pair_bids: bool = False,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    retries: int = 0,
    item_timeout: Optional[float] = None,
    strict: bool = True,
    journal: "Union[None, str, os.PathLike, SweepJournal]" = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> SweepReport:
    """Evaluate a grid of bids against a stack of price traces in one shot.

    Parameters
    ----------
    traces:
        One trace or a sequence of traces — each a
        :class:`~repro.traces.history.SpotPriceHistory` or a 1-D price
        array.  Lengths may differ (rows are padded internally).
    bids:
        Bid prices in $/hour, each finite and non-negative.  By default
        every bid is evaluated against every trace (grid mode, cells
        ``(n_traces, n_bids)``); with ``pair_bids=True``, ``bids[i]`` is
        evaluated only against ``traces[i]`` (cells ``(n_traces, 1)``).
    job:
        The :class:`~repro.core.types.JobSpec` to run in every cell.
    strategy:
        ``Strategy.PERSISTENT`` or ``Strategy.ONE_TIME`` — the request
        kind the kernel simulates.  ``Strategy.PERCENTILE``,
        ``Strategy.PORTFOLIO`` and ``Strategy.CVAR`` are bid-*selection*
        strategies, not execution kinds: compute their bid (e.g. via
        ``BiddingClient.decide``) and sweep it as PERSISTENT.
    start_slots:
        Slot offset(s) applied per trace before simulation.
    max_workers / executor:
        Trace-level fan-out through :func:`repro.scheduler.run_shards`.
        ``"thread"`` (the default) runs the shards in this process:
        serially, or on ``max_workers`` threads.  ``"process"`` runs
        them on the fault-tolerant work-stealing pool — dynamic shard
        dispatch, straggler speculation, crash respawn and poison-shard
        quarantine.  Results are bitwise identical to a serial run
        either way.
    retries / item_timeout / strict / journal:
        Resilient execution (any non-default value activates it): each
        trace becomes its own shard, re-run at once up to ``retries``
        times after a failure.  With ``strict=False`` permanent failures
        land in ``SweepReport.failures`` (their rows become NaN
        placeholders) instead of raising
        :class:`~repro.errors.SweepExecutionError`.  ``journal`` (a path
        or :class:`~repro.scheduler.journal.SweepJournal`) persists
        finished traces so an interrupted sweep resumes without
        recomputing them.  ``item_timeout`` kills and respawns a worker
        whose shard exceeds it, so it needs ``executor="process"``.
    worker_faults:
        Optional :class:`~repro.resilience.faults.WorkerFaults` —
        seeded process-level chaos (worker kills, stalls, slow starts)
        injected into the scheduler pool.  Requires
        ``executor="process"``; results remain bitwise identical to the
        fault-free run.

    Returns
    -------
    SweepReport
        Per-cell outcome arrays, bitwise identical to the fastpath
        oracle, plus work counters and the scheduler's stats.
    """
    strategy = normalize_strategy(strategy)
    if not strategy.sweepable:
        raise SpecError(
            f"Strategy.{strategy.name} selects a bid; compute it first and "
            "sweep the resulting price with Strategy.PERSISTENT"
        )
    if executor not in ("thread", "process"):
        raise SpecError(f"unknown executor {executor!r}; use 'thread' or 'process'")
    _slot_length_of(traces, job)
    matrix, n_valid = _stack_traces(_as_trace_list(traces), start_slots)
    n_traces = matrix.shape[0]

    bid_values = np.atleast_1d(np.asarray(bids, dtype=float))
    if bid_values.size == 0:
        raise MarketError("need at least one bid to sweep")
    bad = ~(np.isfinite(bid_values) & (bid_values >= 0.0))
    if bad.any():
        raise MarketError(
            f"bid {float(bid_values[bad][0])!r} is not a price; bids must "
            "be finite and non-negative"
        )
    if pair_bids:
        if bid_values.shape != (n_traces,):
            raise MarketError(
                f"pair_bids=True needs one bid per trace; got {bid_values.shape} "
                f"for {n_traces} traces"
            )
        kernel_bids: np.ndarray = bid_values[:, None]
    else:
        if bid_values.ndim != 1:
            raise MarketError("bids must be a scalar or 1-D sequence")
        kernel_bids = bid_values

    recovery = job.recovery_time if strategy is Strategy.PERSISTENT else 0.0
    n_cols = 1 if pair_bids else int(kernel_bids.shape[-1])

    resilient = (
        retries > 0 or item_timeout is not None or journal is not None or not strict
    )
    fan_out = max_workers is not None and max_workers > 1
    # Chunks cross a process boundary exactly when the scheduler pool
    # will be used; only then is the price stack worth sharing.
    out_of_process = executor == "process" and (
        fan_out or item_timeout is not None or worker_faults is not None
    )
    chunks: List[np.ndarray]
    if resilient:
        # One trace per shard so a failure (or a journal hit) is
        # isolated to exactly one row of the report.
        chunks = [np.asarray([i]) for i in range(n_traces)]
    elif fan_out:
        # The pool pulls shards dynamically, so cut more shards than
        # workers: a slow worker then holds back one small shard, not a
        # statically assigned 1/W of the sweep.
        n_chunks = (
            min(n_traces, max(2, 4 * max_workers))
            if out_of_process
            else min(max_workers, n_traces)
        )
        bounds = np.array_split(np.arange(n_traces), n_chunks)
        chunks = [idx for idx in bounds if idx.size]
    else:
        chunks = [np.arange(n_traces)]

    if journal is not None:
        from ..scheduler.journal import SweepJournal

        if not isinstance(journal, SweepJournal):
            # Non-durable on purpose: the sweep journal is a resume
            # optimization — losing trailing records after a crash
            # only re-runs those cells, it never corrupts results.
            journal = SweepJournal(
                journal,
                fsync=False,
                signature={
                    "strategy": strategy.value,
                    "execution_time": job.execution_time,
                    "recovery_time": recovery,
                    "slot_length": job.slot_length,
                    "pair_bids": pair_bids,
                    "bids": [float(b) for b in bid_values],
                    "n_traces": n_traces,
                },
            )

    from ..scheduler import run_shards
    from ..scheduler.pool import MAX_SHARD_FAILURES

    stack: Optional[SharedPriceStack] = None
    try:
        if out_of_process:
            # Zero-copy fan-out: the (T, S) matrix and n_valid live in one
            # shared-memory segment; workers get (name, shape, row-bounds).
            # Re-dispatched and journal-resumed shards reuse the segment.
            stack = SharedPriceStack(matrix, n_valid)

        args = []
        for idx in chunks:
            chunk_bids = kernel_bids[idx] if pair_bids else kernel_bids
            if stack is not None:
                payload = ("shm", stack.descriptor, int(idx[0]), int(idx[-1]) + 1)
            else:
                payload = ("inline", matrix[idx], n_valid[idx])
            args.append(
                (
                    strategy.value,
                    payload,
                    chunk_bids,
                    job.execution_time,
                    recovery,
                    job.slot_length,
                )
            )

        started = time.perf_counter()
        sched = run_shards(
            _run_kernel_chunk,
            args,
            executor="process" if out_of_process else "thread",
            max_workers=max_workers,
            keys=[f"trace:{i}" for i in range(n_traces)] if resilient else None,
            labels=[f"trace {i}" for i in range(n_traces)] if resilient else None,
            journal=journal,
            serialize=_serialize_kernel_result,
            deserialize=_deserialize_kernel_result,
            strict=strict,
            max_shard_failures=(retries + 1) if resilient else MAX_SHARD_FAILURES,
            shard_timeout=item_timeout,
            worker_faults=worker_faults,
        )
        kernel_seconds = time.perf_counter() - started
    finally:
        if stack is not None:
            stack.close()

    results = [
        r if r is not None else _failure_placeholder(n_cols) for r in sched.results
    ]
    merged = {
        key: np.concatenate([r[key] for r in results], axis=0) for key in _FIELDS
    }
    counters = SweepCounters(
        n_traces=n_traces,
        n_bids=n_cols,
        slots_simulated=int(sum(r["slots_simulated"] for r in results)),
        kernel_seconds=kernel_seconds,
    )
    return SweepReport(
        strategy=strategy,
        bids=bid_values,
        completed=merged["completed"],
        cost=merged["cost"],
        completion_time=merged["completion_time"],
        running_time=merged["running_time"],
        idle_time=merged["idle_time"],
        recovery_time_used=merged["recovery_time_used"],
        interruptions=merged["interruptions"],
        counters=counters,
        failures=sched.failures,
        scheduler=sched.stats,
    )
