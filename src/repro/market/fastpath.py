"""Fast path for single-request persistent simulations.

Parameter sweeps (Monte-Carlo validation, large ablations) simulate the
same shape over and over: one persistent request against one price
trace.  :func:`fast_persistent_outcome` computes that run directly from
the price array — no market object, no event log — touching only the
accepted slots.  Its semantics are defined to match
:func:`repro.market.instance.advance_request` exactly, and the test
suite holds the two implementations equal on random traces, which makes
this module double as an independent oracle for the market engine — and
the one specification of the batched :mod:`repro.sweep.kernels`.

Both functions return :class:`~repro.market.outcomes.OutcomeStats`;
:func:`outcome_grid` runs either one cell by cell over a sweep kernel's
grid — the lane the equivalence tests and ``repro-bid bench`` compare
the kernels against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..errors import MarketError
from .outcomes import OutcomeStats

__all__ = ["fast_onetime_outcome", "fast_persistent_outcome", "outcome_grid"]

#: The :class:`OutcomeStats` fields, each with the dtype the batched
#: sweep kernels return it in.
_GRID_FIELDS = (
    ("completed", np.bool_),
    ("cost", np.float64),
    ("completion_time", np.float64),
    ("running_time", np.float64),
    ("idle_time", np.float64),
    ("recovery_time_used", np.float64),
    ("interruptions", np.int64),
)


def fast_persistent_outcome(
    prices: np.ndarray,
    bid: float,
    work: float,
    recovery_time: float,
    slot_length: float,
) -> OutcomeStats:
    """Simulate one persistent request over ``prices`` (one per slot).

    The request is submitted at slot 0; each slot it runs if
    ``bid >= price``, pays the spot price for time used, owes
    ``recovery_time`` of charged-but-useless running time after every
    resume from an interruption, and completes mid-slot when the work is
    done.  Idle slots are free.  If the trace ends first, the partial
    accounting is returned with ``completed=False``.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size == 0:
        raise MarketError("prices must be a non-empty 1-D array")
    if bid < 0 or work <= 0 or recovery_time < 0 or slot_length <= 0:
        raise MarketError(
            f"invalid parameters: bid={bid!r} work={work!r} "
            f"recovery_time={recovery_time!r} slot_length={slot_length!r}"
        )

    accepted = prices <= bid
    accepted_idx = np.flatnonzero(accepted)
    if accepted_idx.size == 0:
        return OutcomeStats(
            completed=False,
            cost=0.0,
            completion_time=float("nan"),
            running_time=0.0,
            idle_time=prices.size * slot_length,
            recovery_time_used=0.0,
            interruptions=0,
        )

    # A slot is a "resume" when the previous slot was not accepted and
    # the request had already launched (interruptions happen only after
    # the first launch).
    gaps = np.diff(accepted_idx) > 1
    resume_positions = set((np.flatnonzero(gaps) + 1).tolist())

    work_remaining = float(work)
    pending_recovery = 0.0
    cost = 0.0
    running = 0.0
    recovery_used = 0.0
    interruptions_seen = 0
    completion_time = float("nan")
    completed = False
    last_slot_simulated = -1

    for position, slot in enumerate(accepted_idx):
        if position in resume_positions:
            pending_recovery = recovery_time
            interruptions_seen += 1
        budget = slot_length
        used = 0.0
        if pending_recovery > 0.0:
            step = min(pending_recovery, budget)
            pending_recovery -= step
            recovery_used += step
            budget -= step
            used += step
        if budget > 0.0 and work_remaining > 0.0:
            step = min(work_remaining, budget)
            work_remaining -= step
            used += step
        if work_remaining > 1e-12:
            used = slot_length  # occupies the whole slot
        price = float(prices[slot])
        cost += price * used
        running += used
        last_slot_simulated = int(slot)
        if work_remaining <= 1e-12:
            completed = True
            completion_time = slot * slot_length + used
            break

    if completed:
        slots_elapsed = last_slot_simulated + 1
        accepted_before_end = int(
            np.searchsorted(accepted_idx, last_slot_simulated, side="right")
        )
        idle = (slots_elapsed - accepted_before_end) * slot_length
        interruptions = interruptions_seen
    else:
        idle = (prices.size - accepted_idx.size) * slot_length
        # The engine counts an interruption at every out-bid of a running
        # request — including the trailing knock-back when the trace ends
        # on rejected slots — so an incomplete run carries one more
        # interruption than it has resumes unless the trace's final slot
        # was accepted.
        trailing = 1 if int(accepted_idx[-1]) < prices.size - 1 else 0
        interruptions = interruptions_seen + trailing
    return OutcomeStats(
        completed=completed,
        cost=cost,
        completion_time=completion_time,
        running_time=running,
        idle_time=idle,
        recovery_time_used=recovery_used,
        interruptions=interruptions,
    )


def fast_onetime_outcome(
    prices: np.ndarray,
    bid: float,
    work: float,
    slot_length: float,
) -> OutcomeStats:
    """Simulate one one-time request over ``prices``.

    Pends until first accepted, then runs until completion or the first
    out-bid slot (which terminates it permanently).  Semantics match the
    market engine; the same equivalence test covers both paths.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 1 or prices.size == 0:
        raise MarketError("prices must be a non-empty 1-D array")
    if bid < 0 or work <= 0 or slot_length <= 0:
        raise MarketError(
            f"invalid parameters: bid={bid!r} work={work!r} "
            f"slot_length={slot_length!r}"
        )
    accepted = prices <= bid
    accepted_idx = np.flatnonzero(accepted)
    if accepted_idx.size == 0:
        return OutcomeStats(
            completed=False, cost=0.0, completion_time=float("nan"),
            running_time=0.0, idle_time=prices.size * slot_length,
            recovery_time_used=0.0, interruptions=0,
        )
    start = int(accepted_idx[0])
    rejected_after = np.flatnonzero(~accepted[start:])
    end = start + int(rejected_after[0]) if rejected_after.size else prices.size

    work_remaining = float(work)
    cost = 0.0
    running = 0.0
    completed = False
    completion_time = float("nan")
    for slot in range(start, end):
        used = min(work_remaining, slot_length)
        if work_remaining > slot_length + 1e-12:
            used = slot_length
        cost += float(prices[slot]) * used
        running += used
        work_remaining -= used
        if work_remaining <= 1e-12:
            completed = True
            completion_time = slot * slot_length + used
            break
    return OutcomeStats(
        completed=completed,
        cost=cost,
        completion_time=completion_time,
        running_time=running,
        idle_time=start * slot_length,
        recovery_time_used=0.0,
        interruptions=0,
    )


def outcome_grid(
    oracle: Callable[..., OutcomeStats],
    prices: np.ndarray,
    bids: np.ndarray,
    *,
    n_valid: Optional[np.ndarray] = None,
    **params: float,
) -> Dict[str, np.ndarray]:
    """A scalar ``oracle`` run cell by cell over a sweep kernel's grid.

    Takes a sweep kernel's inputs — ``prices`` ``(T, S)``, ``bids``
    ``(B,)`` or ``(T, B)`` per-trace, the true row lengths ``n_valid`` —
    and calls ``oracle(row, bid, **params)`` (:func:`fast_persistent_outcome`
    or :func:`fast_onetime_outcome`, with the kernel's ``work`` /
    ``recovery_time`` / ``slot_length``) on each cell, over the first
    ``n_valid[t]`` slots of trace ``t``.  Returns the seven
    :class:`~repro.market.outcomes.OutcomeStats` fields as ``(T, B)``
    arrays in the kernels' dtypes, so a kernel result compares to it
    field by field, bitwise.  Every value is the oracle's own: this
    function only loops and stacks.
    """
    prices = np.asarray(prices, dtype=float)
    bids = np.asarray(bids, dtype=float)
    bids2 = bids[None, :] if bids.ndim == 1 else bids
    n_traces, n_slots = prices.shape
    if bids2.shape[0] not in (1, n_traces):
        raise MarketError(
            f"per-trace bids must have {n_traces} rows, got {bids2.shape[0]}"
        )
    lengths = [n_slots] * n_traces if n_valid is None else list(n_valid)
    cells = [
        [
            oracle(prices[t, : int(lengths[t])], float(bid), **params)
            for bid in bids2[t if bids2.shape[0] > 1 else 0]
        ]
        for t in range(n_traces)
    ]
    return {
        name: np.array(
            [[getattr(cell, name) for cell in row] for row in cells],
            dtype=dtype,
        )
        for name, dtype in _GRID_FIELDS
    }
