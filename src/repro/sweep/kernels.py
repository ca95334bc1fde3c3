"""Sweep kernels: the reference slot-batched loops and shared preparation.

Two kernel families evaluate a whole ``(trace, bid)`` grid against the
scalar :mod:`repro.market.fastpath` oracle:

* the **reference kernels** in this module
  (:func:`persistent_sweep_kernel_reference`,
  :func:`onetime_sweep_kernel_reference`) step slot-by-slot with dense
  ``(n_traces, n_bids)`` state matrices — simple, audited, and the
  ground truth the rest of the stack is measured against;
* the **event-driven kernels** in :mod:`repro.sweep.events`
  (re-exported here as :func:`persistent_sweep_kernel` and
  :func:`onetime_sweep_kernel`) advance each lane only at its accepted
  slots and compact completed lanes away, eliminating the
  ``O(slots x traces x bids)`` dense-mask work while producing
  **bitwise identical** outputs.

Both families perform the *same* elementwise float operations, in the
same per-lane order, as the scalar oracle — so costs agree with ``==``,
not ``isclose``.  That property is load-bearing: the equivalence tests
compare cells exactly, and the event kernels are only allowed to skip
slots that are pure no-ops for a lane (rejected slots touch no
accumulator).

Design notes
------------
* Trace stacks may be ragged: pad rows with ``+inf`` (never accepted)
  and pass the true lengths via ``n_valid``.  Slots at or beyond a
  trace's ``n_valid`` must hold ``+inf``; the kernels' behaviour on
  finite garbage padding is undefined.
* Pairwise-summing reductions over a lane's cost chain (``np.sum``, or
  regrouping a sequential chain through prefix sums) would change the
  floating-point result and break bitwise equality; only per-slot
  sequential accumulation is allowed on float state.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MarketError

__all__ = [
    "onetime_sweep_kernel",
    "onetime_sweep_kernel_reference",
    "persistent_sweep_kernel",
    "persistent_sweep_kernel_reference",
]

#: Work below this threshold counts as complete (same epsilon as the
#: scalar oracle and the market engine).
_EPS = 1e-12


def _row_searchsorted_right(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Batched ``np.searchsorted(rows[t], values[t], side='right')``.

    ``rows`` is ``(n_rows, width)`` with every row sorted ascending;
    ``values`` broadcasts to ``(n_rows, n_values)``.  Pure integer
    binary search over comparisons — no float arithmetic, so the counts
    are exact and identical to per-row ``np.searchsorted``.
    """
    n_rows, width = rows.shape
    vals = np.broadcast_to(values, (n_rows, values.shape[-1]))
    lo = np.zeros(vals.shape, dtype=np.int64)
    hi = np.full(vals.shape, width, dtype=np.int64)
    row_idx = np.arange(n_rows)[:, None]
    while True:
        open_cells = lo < hi
        if not open_cells.any():
            return lo
        mid = (lo + hi) >> 1
        # Closed cells may have mid == width; their comparison result is
        # discarded by the masks below, so clip the gather index only.
        take = rows[row_idx, np.minimum(mid, width - 1)] <= vals
        lo = np.where(open_cells & take, mid + 1, lo)
        hi = np.where(open_cells & ~take, mid, hi)


def _prepare(
    prices: np.ndarray,
    bids: np.ndarray,
    n_valid: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate and broadcast kernel inputs.

    Returns ``(prices, bids2, n_valid, accepted_total)`` where ``bids2``
    has shape ``(1, B)`` or ``(T, B)`` and ``accepted_total[t, b]`` counts
    the accepted slots of lane ``(t, b)`` over the valid trace.  The
    returned price matrix has any slots at or beyond ``n_valid`` forced
    to ``+inf`` so downstream acceptance tests cannot see stale padding.

    The whole computation is vectorized: one ``np.sort`` over the padded
    matrix plus a batched binary search, instead of a per-trace Python
    loop.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[None, :]
    if prices.ndim != 2 or prices.shape[1] == 0 or prices.shape[0] == 0:
        raise MarketError("prices must be a non-empty (n_traces, n_slots) array")
    n_traces, n_slots = prices.shape

    bids = np.asarray(bids, dtype=float)
    if bids.ndim == 0:
        bids = bids[None]
    if bids.ndim == 1:
        bids2 = bids[None, :]
    elif bids.ndim == 2:
        if bids.shape[0] != n_traces:
            raise MarketError(
                f"per-trace bids must have {n_traces} rows, got {bids.shape[0]}"
            )
        bids2 = bids
    else:
        raise MarketError("bids must be scalar, 1-D, or (n_traces, n_bids)")
    if bids2.shape[1] == 0:
        raise MarketError("bids must be non-empty")
    if np.any(bids2 < 0) or not np.all(np.isfinite(bids2)):
        raise MarketError("bids must be non-negative and finite")

    if n_valid is None:
        n_valid = np.full(n_traces, n_slots, dtype=np.int64)
    else:
        n_valid = np.asarray(n_valid, dtype=np.int64)
        if n_valid.shape != (n_traces,):
            raise MarketError(f"n_valid must have shape ({n_traces},)")
        if np.any(n_valid <= 0) or np.any(n_valid > n_slots):
            raise MarketError("n_valid entries must be in [1, n_slots]")
        if np.any(n_valid < n_slots):
            prices = np.where(
                np.arange(n_slots)[None, :] < n_valid[:, None], prices, np.inf
            )

    # Total accepted slots per lane: one sort of the padded matrix
    # (+inf pads sink to the end) plus a batched searchsorted; finite
    # bids never count the pads, so this equals the old per-trace
    # sort-the-valid-prefix loop exactly.
    sorted_rows = np.sort(prices, axis=1)
    accepted_total = _row_searchsorted_right(sorted_rows, bids2)
    return prices, bids2, n_valid, accepted_total


def persistent_sweep_kernel_reference(
    prices: np.ndarray,
    bids: np.ndarray,
    *,
    work: float,
    recovery_time: float,
    slot_length: float,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Batched :func:`~repro.market.fastpath.fast_persistent_outcome`
    (reference slot-loop implementation).

    Parameters mirror the scalar oracle; ``prices`` is ``(T, S)`` (ragged
    rows padded with ``+inf``), ``bids`` is ``(B,)`` for a full grid or
    ``(T, B)`` for per-trace bids.  Returns a dict of ``(T, B)`` arrays:
    ``completed, cost, completion_time, running_time, idle_time,
    recovery_time_used, interruptions`` plus the scalar
    ``slots_simulated`` loop count.

    This is the oracle the event-driven
    :func:`~repro.sweep.events.persistent_sweep_kernel` is held bitwise
    equal to; prefer the event-driven kernel on hot paths.
    """
    if work <= 0 or recovery_time < 0 or slot_length <= 0:
        raise MarketError(
            f"invalid parameters: work={work!r} "
            f"recovery_time={recovery_time!r} slot_length={slot_length!r}"
        )
    prices, bids2, n_valid, accepted_total = _prepare(prices, bids, n_valid)
    n_traces, n_slots = prices.shape
    n_bids = bids2.shape[1]
    shape = (n_traces, n_bids)

    work_remaining = np.full(shape, float(work))
    pending_recovery = np.zeros(shape)
    cost = np.zeros(shape)
    running = np.zeros(shape)
    recovery_used = np.zeros(shape)
    interruptions = np.zeros(shape, dtype=np.int64)
    accepted_seen = np.zeros(shape, dtype=np.int64)
    completion_time = np.full(shape, np.nan)
    completed = np.zeros(shape, dtype=bool)
    launched = np.zeros(shape, dtype=bool)
    last_accepted = np.full(shape, -1, dtype=np.int64)

    alive = accepted_total > 0  # lanes that ever run at all
    max_slot = int(n_valid.max())
    slots_simulated = 0
    for s in range(max_slot):
        if np.all(completed | ~alive):
            break
        slots_simulated += 1
        col = prices[:, s][:, None]  # (T, 1); padded rows hold +inf
        acc = (col <= bids2) & ~completed
        if not acc.any():
            continue
        resume = acc & launched & (last_accepted < s - 1)
        pending_recovery[resume] = recovery_time
        interruptions[resume] += 1

        # One slot of the scalar oracle, elementwise and in the same order.
        m1 = acc & (pending_recovery > 0.0)
        step1 = np.where(m1, np.minimum(pending_recovery, slot_length), 0.0)
        pending_recovery = pending_recovery - step1
        recovery_used = recovery_used + step1
        budget = slot_length - step1
        used = step1
        m2 = acc & (budget > 0.0) & (work_remaining > 0.0)
        step2 = np.where(m2, np.minimum(work_remaining, budget), 0.0)
        work_remaining = work_remaining - step2
        used = used + step2
        used = np.where(acc & (work_remaining > _EPS), slot_length, used)
        safe_col = np.where(np.isfinite(col), col, 0.0)
        cost = np.where(acc, cost + safe_col * used, cost)
        running = np.where(acc, running + used, running)

        finished = acc & (work_remaining <= _EPS)
        completion_time = np.where(finished, s * slot_length + used, completion_time)
        completed = completed | finished
        launched = launched | acc
        last_accepted = np.where(acc, s, last_accepted)
        accepted_seen = accepted_seen + acc

    # Completed lanes: idle covers rejected slots up to the completion slot.
    idle = np.where(
        completed,
        (last_accepted + 1 - accepted_seen) * slot_length,
        (n_valid[:, None] - accepted_total) * slot_length,
    )
    # Incomplete lanes also carry the trailing knock-back interruption the
    # engine reports when the trace ends on rejected slots.
    trailing = (~completed) & launched & (last_accepted < n_valid[:, None] - 1)
    interruptions = interruptions + trailing.astype(np.int64)
    return {
        "completed": completed,
        "cost": cost,
        "completion_time": completion_time,
        "running_time": running,
        "idle_time": idle,
        "recovery_time_used": recovery_used,
        "interruptions": interruptions,
        "slots_simulated": slots_simulated * n_traces,
    }


def onetime_sweep_kernel_reference(
    prices: np.ndarray,
    bids: np.ndarray,
    *,
    work: float,
    slot_length: float,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Batched :func:`~repro.market.fastpath.fast_onetime_outcome`
    (reference slot-loop implementation).

    Same conventions as :func:`persistent_sweep_kernel_reference`;
    one-time lanes pend until first accepted, run until out-bid
    (terminal) or complete.
    """
    if work <= 0 or slot_length <= 0:
        raise MarketError(
            f"invalid parameters: work={work!r} slot_length={slot_length!r}"
        )
    prices, bids2, n_valid, accepted_total = _prepare(prices, bids, n_valid)
    n_traces, n_slots = prices.shape
    n_bids = bids2.shape[1]
    shape = (n_traces, n_bids)

    work_remaining = np.full(shape, float(work))
    cost = np.zeros(shape)
    running = np.zeros(shape)
    completion_time = np.full(shape, np.nan)
    completed = np.zeros(shape, dtype=bool)
    started = np.zeros(shape, dtype=bool)
    dead = np.zeros(shape, dtype=bool)  # out-bid after starting (terminal)
    start_slot = np.zeros(shape, dtype=np.int64)

    alive = accepted_total > 0
    max_slot = int(n_valid.max())
    slots_simulated = 0
    for s in range(max_slot):
        if np.all(completed | dead | ~alive):
            break
        slots_simulated += 1
        col = prices[:, s][:, None]
        acc = col <= bids2
        starting = acc & ~started
        start_slot = np.where(starting, s, start_slot)
        run = (started | starting) & ~completed & ~dead
        dead = dead | (run & ~acc)
        started = started | starting
        run_now = run & acc
        if not run_now.any():
            continue
        used = np.minimum(work_remaining, slot_length)
        used = np.where(work_remaining > slot_length + _EPS, slot_length, used)
        safe_col = np.where(np.isfinite(col), col, 0.0)
        cost = np.where(run_now, cost + safe_col * used, cost)
        running = np.where(run_now, running + used, running)
        work_remaining = np.where(run_now, work_remaining - used, work_remaining)
        finished = run_now & (work_remaining <= _EPS)
        completion_time = np.where(finished, s * slot_length + used, completion_time)
        completed = completed | finished

    idle = np.where(
        started,
        start_slot * slot_length,
        n_valid[:, None] * slot_length,
    )
    zeros = np.zeros(shape)
    return {
        "completed": completed,
        "cost": cost,
        "completion_time": completion_time,
        "running_time": running,
        "idle_time": idle,
        "recovery_time_used": zeros,
        "interruptions": np.zeros(shape, dtype=np.int64),
        "slots_simulated": slots_simulated * n_traces,
    }


# The fast event-driven kernels live in repro.sweep.events and are the
# public default under the historical names.  Imported at the bottom so
# events.py can import _prepare/_EPS from this module without a cycle.
from .events import (  # noqa: E402  (deliberate bottom import)
    onetime_sweep_kernel,
    persistent_sweep_kernel,
)
