"""Sweep kernels: batched :mod:`repro.market.fastpath`, one lane per cell.

:func:`persistent_sweep_kernel` and :func:`onetime_sweep_kernel`
evaluate a whole ``(trace, bid)`` grid at once and are **bitwise
identical**, field for field, to running the scalar oracle
(:func:`~repro.market.fastpath.fast_persistent_outcome`,
:func:`~repro.market.fastpath.fast_onetime_outcome`) on every cell —
the comparison :func:`repro.market.fastpath.outcome_grid` makes for the
equivalence tests and the bench.  Rather than step every slot of every
trace with dense ``(n_traces, n_bids)`` state — ``O(S * T * B)`` work,
although a rejected slot is a pure no-op for a lane and a completed
lane never changes again — the kernels advance each lane only at its
accepted slots, built on three exact observations:

1. **Acceptance is a threshold test.**  Slot ``s`` of trace ``t`` is
   accepted by a bid iff ``prices[t, s] <= bid`` — the oracle's own
   rule, ties at the bid included.  Sorting each trace's prices once
   (``searchsorted``, ``side="right"``) also yields, per lane, the
   *count* of slots that test passes, which retires a lane once it has
   seen all of them.
2. **Lanes with equal counts are identical.**  Two bids on the same
   trace that accept the same number of slots accept the *same* slots
   (the accepted sets are nested, so equal sizes mean equal sets) and
   therefore produce bit-identical outcomes; the grid is deduplicated
   to unique ``(trace, count)`` lanes, each testing with one of its
   bids, and results are scattered back at the end.
3. **Float state must advance sequentially per accepted slot.**  The
   oracle's cost/recovery/work accumulators are order-sensitive float
   chains, so the kernel replays exactly the same elementwise
   operations in the same per-lane order — it only skips slots that
   touch no accumulator and drops lanes that can never change again.

The slot axis is processed in fixed-width blocks: within a block each
live lane's accepted slots are extracted (the threshold test on the
block's prices, then a stable argsort of the acceptance mask — run
boundaries fall out of the slot indices themselves), then lanes advance
in lockstep over their k-th accepted slot of the block.  Finished and
exhausted lanes are compacted away at block boundaries, so late blocks
run over a shrinking live set.  The MapReduce plan-grid kernel
(:mod:`repro.mapreduce.kernels`) walks its lanes with the same block
scan.

Design notes
------------
* Trace stacks may be ragged: pad rows with ``+inf`` (never accepted)
  and pass the true lengths via ``n_valid``.  Slots at or beyond a
  trace's ``n_valid`` are forced to ``+inf`` before any test, so stale
  padding is invisible.
* Pairwise-summing reductions over a lane's cost chain (``np.sum``, or
  regrouping a sequential chain through prefix sums) would change the
  floating-point result and break bitwise equality; only per-slot
  sequential accumulation is allowed on float state.
* The ``slots_simulated`` diagnostic counts *accepted lane-events
  actually executed* (after deduplication), the true work metric for
  these kernels.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MarketError

__all__ = ["onetime_sweep_kernel", "persistent_sweep_kernel"]

#: Work below this threshold counts as complete (same epsilon as the
#: scalar oracle and the market engine).
_EPS = 1e-12

#: Slot-axis block width for the acceptance scan.  Large enough to
#: amortize per-block setup (price gather, stable argsort, compaction),
#: small enough that lanes finishing early waste little lockstep work.
_BLOCK = 32


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


def _dedup_lanes(
    accepted_total: np.ndarray, bids2: np.ndarray, n_slots: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Collapse the ``(T, B)`` grid to unique ``(trace, count)`` lanes.

    Returns ``(flat_alive, inverse, u_trace, u_cnt, u_bid)``: the flat
    cell indices with at least one accepted slot, the map from those
    cells to unique lanes, and the unique lanes' trace index, accepted
    count and bid — that of the lane's first cell, since every bid of a
    lane accepts the same slots.  Returns ``None`` when no lane ever
    runs.
    """
    n_traces, n_bids = accepted_total.shape
    flat_cnt = accepted_total.ravel()
    flat_alive = np.flatnonzero(flat_cnt > 0)
    if flat_alive.size == 0:
        return None
    lane_trace = flat_alive // n_bids
    keys = lane_trace * np.int64(n_slots + 1) + flat_cnt[flat_alive]
    unique_keys, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    u_trace = unique_keys // (n_slots + 1)
    u_cnt = unique_keys % (n_slots + 1)
    bid_col = flat_alive[first] % n_bids
    u_bid = bids2[u_trace, bid_col] if bids2.shape[0] > 1 else bids2[0, bid_col]
    return flat_alive, inverse, u_trace, u_cnt, u_bid


def _block_events(
    prices: np.ndarray,
    trace: np.ndarray,
    bid: np.ndarray,
    lo: int,
    hi: int,
    lane_lo: Optional[np.ndarray] = None,
    lane_hi: Optional[np.ndarray] = None,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Accepted slots of each live lane within slot block ``[lo, hi)``.

    Returns ``(slots, counts)``: ``slots[i, k]`` is lane ``i``'s k-th
    accepted slot in the block (temporal order; columns past
    ``counts[i]`` are meaningless) and ``counts[i]`` how many it has.
    Lane ``i`` accepts slot ``s`` iff ``prices[trace[i], s] <= bid[i]``;
    the stable argsort of the negated acceptance mask then moves
    accepted positions to the front without disturbing their temporal
    order, which is exactly the lane's event schedule.

    ``lane_lo`` / ``lane_hi`` optionally restrict each lane to its own
    slot window ``[lane_lo[i], lane_hi[i])`` — the MapReduce grid
    kernels walk lanes whose simulation windows start at different
    trace offsets (per-run start slots) and end at different horizons.
    """
    acc = prices[:, lo:hi][trace] <= bid[:, None]
    if lane_lo is not None:
        slots_ax = np.arange(lo, hi)
        acc &= (slots_ax[None, :] >= lane_lo[:, None]) & (
            slots_ax[None, :] < lane_hi[:, None]
        )
    counts = acc.sum(axis=1)
    max_count = int(counts.max()) if counts.size else 0
    if max_count == 0:
        return None, counts
    order = np.argsort(~acc, axis=1, kind="stable")[:, :max_count]
    return order + lo, counts


def persistent_sweep_kernel(
    prices: np.ndarray,
    bids: np.ndarray,
    *,
    work: float,
    recovery_time: float,
    slot_length: float,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Batched :func:`~repro.market.fastpath.fast_persistent_outcome`.

    Parameters mirror the scalar oracle; ``prices`` is ``(T, S)`` (ragged
    rows padded with ``+inf``), ``bids`` is ``(B,)`` for a full grid or
    ``(T, B)`` for per-trace bids.  Returns a dict of ``(T, B)`` arrays:
    ``completed, cost, completion_time, running_time, idle_time,
    recovery_time_used, interruptions`` — each bitwise equal to the
    oracle's cell — plus the scalar ``slots_simulated`` count of
    executed lane-events.
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
    slot_len = float(slot_length)

    # Cell defaults cover never-running lanes (no accepted slot): they
    # idle through their whole valid trace and touch nothing else.
    completed = np.zeros(shape, dtype=bool)
    cost = np.zeros(shape)
    completion_time = np.full(shape, np.nan)
    running = np.zeros(shape)
    idle = (n_valid[:, None] - accepted_total) * slot_length
    recovery_used = np.zeros(shape)
    interruptions = np.zeros(shape, dtype=np.int64)
    result = {
        "completed": completed,
        "cost": cost,
        "completion_time": completion_time,
        "running_time": running,
        "idle_time": idle,
        "recovery_time_used": recovery_used,
        "interruptions": interruptions,
        "slots_simulated": 0,
    }
    lanes = _dedup_lanes(accepted_total, bids2, n_slots)
    if lanes is None:
        return result
    flat_alive, inverse, u_trace, u_cnt, u_bid = lanes
    n_lanes = u_trace.size

    # Live (compacted) per-lane state; `lane` maps back to unique lanes.
    lane = np.arange(n_lanes)
    trace = u_trace.copy()
    cnt = u_cnt.copy()
    bid = u_bid
    w = np.full(n_lanes, float(work))
    pend = np.zeros(n_lanes)
    l_cost = np.zeros(n_lanes)
    l_run = np.zeros(n_lanes)
    l_rec = np.zeros(n_lanes)
    l_ct = np.full(n_lanes, np.nan)
    l_intr = np.zeros(n_lanes, dtype=np.int64)
    seen = np.zeros(n_lanes, dtype=np.int64)
    last = np.full(n_lanes, -1, dtype=np.int64)
    fin = np.zeros(n_lanes, dtype=bool)

    # Per-unique-lane outputs, filled as lanes retire.
    o_fin = np.zeros(n_lanes, dtype=bool)
    o_cost = np.zeros(n_lanes)
    o_ct = np.full(n_lanes, np.nan)
    o_run = np.zeros(n_lanes)
    o_rec = np.zeros(n_lanes)
    o_intr = np.zeros(n_lanes, dtype=np.int64)
    o_seen = np.zeros(n_lanes, dtype=np.int64)
    o_last = np.full(n_lanes, -1, dtype=np.int64)

    events = 0
    max_slot = int(n_valid.max())
    for lo in range(0, max_slot, _BLOCK):
        if trace.size == 0:
            break
        slots, counts = _block_events(
            prices, trace, bid, lo, min(lo + _BLOCK, max_slot)
        )
        if slots is not None:
            for k in range(slots.shape[1]):
                act = (counts > k) & ~fin
                n_act = int(np.count_nonzero(act))
                if n_act == 0:
                    break
                events += n_act
                slot = slots[:, k]
                price = np.where(act, prices[trace, slot], 0.0)
                # One accepted slot of the scalar oracle, elementwise
                # and in the same operation order.
                resume = act & (seen > 0) & (last < slot - 1)
                pend = np.where(resume, recovery_time, pend)
                l_intr = l_intr + resume
                m1 = act & (pend > 0.0)
                step1 = np.where(m1, np.minimum(pend, slot_len), 0.0)
                pend = pend - step1
                l_rec = l_rec + step1
                budget = slot_len - step1
                used = step1
                m2 = act & (budget > 0.0) & (w > 0.0)
                step2 = np.where(m2, np.minimum(w, budget), 0.0)
                w = w - step2
                used = used + step2
                used = np.where(act & (w > _EPS), slot_len, used)
                l_cost = np.where(act, l_cost + price * used, l_cost)
                l_run = np.where(act, l_run + used, l_run)
                fin_now = act & (w <= _EPS)
                l_ct = np.where(fin_now, slot * slot_len + used, l_ct)
                fin = fin | fin_now
                last = np.where(act, slot, last)
                seen = seen + act
        # Retire lanes that completed or exhausted their accepted slots,
        # then compact the live set.
        done = fin | (seen == cnt)
        if done.any():
            ids = lane[done]
            o_fin[ids] = fin[done]
            o_cost[ids] = l_cost[done]
            o_ct[ids] = l_ct[done]
            o_run[ids] = l_run[done]
            o_rec[ids] = l_rec[done]
            o_intr[ids] = l_intr[done]
            o_seen[ids] = seen[done]
            o_last[ids] = last[done]
            keep = ~done
            lane, trace, cnt, bid = lane[keep], trace[keep], cnt[keep], bid[keep]
            w, pend = w[keep], pend[keep]
            l_cost, l_run, l_rec, l_ct = (
                l_cost[keep], l_run[keep], l_rec[keep], l_ct[keep],
            )
            l_intr, seen, last, fin = (
                l_intr[keep], seen[keep], last[keep], fin[keep],
            )
    # Every accepted slot lies below its trace's n_valid <= max_slot, so
    # all lanes retire inside the loop.
    assert trace.size == 0, "event loop left live lanes behind"

    # Exact post-loop accounting, the same expressions as the oracle:
    # completed lanes idle through rejected slots up to completion;
    # incomplete lanes idle through every rejected valid slot and carry
    # the trailing knock-back interruption when the trace ends rejected.
    lane_valid = n_valid[u_trace]
    idle_done = (o_last + 1 - o_seen) * slot_length
    idle_not = (lane_valid - u_cnt) * slot_length
    trailing = (~o_fin) & (o_seen > 0) & (o_last < lane_valid - 1)
    o_intr = o_intr + trailing.astype(np.int64)

    completed.ravel()[flat_alive] = o_fin[inverse]
    cost.ravel()[flat_alive] = o_cost[inverse]
    completion_time.ravel()[flat_alive] = o_ct[inverse]
    running.ravel()[flat_alive] = o_run[inverse]
    idle.ravel()[flat_alive] = np.where(o_fin, idle_done, idle_not)[inverse]
    recovery_used.ravel()[flat_alive] = o_rec[inverse]
    interruptions.ravel()[flat_alive] = o_intr[inverse]
    result["slots_simulated"] = events
    return result


def onetime_sweep_kernel(
    prices: np.ndarray,
    bids: np.ndarray,
    *,
    work: float,
    slot_length: float,
    n_valid: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Batched :func:`~repro.market.fastpath.fast_onetime_outcome`.

    Same conventions as :func:`persistent_sweep_kernel`.  A one-time
    lane pends until its first accepted slot, then runs over the
    contiguous accepted run and dies at the first gap — detected here as
    a discontinuity between consecutive accepted events, so rejected
    slots never need scanning.
    """
    if work <= 0 or slot_length <= 0:
        raise MarketError(
            f"invalid parameters: work={work!r} slot_length={slot_length!r}"
        )
    prices, bids2, n_valid, accepted_total = _prepare(prices, bids, n_valid)
    n_traces, n_slots = prices.shape
    n_bids = bids2.shape[1]
    shape = (n_traces, n_bids)
    slot_len = float(slot_length)

    completed = np.zeros(shape, dtype=bool)
    cost = np.zeros(shape)
    completion_time = np.full(shape, np.nan)
    running = np.zeros(shape)
    idle = np.broadcast_to(n_valid[:, None] * slot_length, shape).copy()
    result = {
        "completed": completed,
        "cost": cost,
        "completion_time": completion_time,
        "running_time": running,
        "idle_time": idle,
        "recovery_time_used": np.zeros(shape),
        "interruptions": np.zeros(shape, dtype=np.int64),
        "slots_simulated": 0,
    }
    lanes = _dedup_lanes(accepted_total, bids2, n_slots)
    if lanes is None:
        return result
    flat_alive, inverse, u_trace, u_cnt, u_bid = lanes
    n_lanes = u_trace.size

    lane = np.arange(n_lanes)
    trace = u_trace.copy()
    cnt = u_cnt.copy()
    bid = u_bid
    w = np.full(n_lanes, float(work))
    l_cost = np.zeros(n_lanes)
    l_run = np.zeros(n_lanes)
    l_ct = np.full(n_lanes, np.nan)
    started = np.zeros(n_lanes, dtype=bool)
    dead = np.zeros(n_lanes, dtype=bool)
    fin = np.zeros(n_lanes, dtype=bool)
    start_slot = np.zeros(n_lanes, dtype=np.int64)
    last = np.full(n_lanes, -1, dtype=np.int64)
    seen = np.zeros(n_lanes, dtype=np.int64)

    o_fin = np.zeros(n_lanes, dtype=bool)
    o_cost = np.zeros(n_lanes)
    o_ct = np.full(n_lanes, np.nan)
    o_run = np.zeros(n_lanes)
    o_started = np.zeros(n_lanes, dtype=bool)
    o_start = np.zeros(n_lanes, dtype=np.int64)

    events = 0
    max_slot = int(n_valid.max())
    for lo in range(0, max_slot, _BLOCK):
        if trace.size == 0:
            break
        slots, counts = _block_events(
            prices, trace, bid, lo, min(lo + _BLOCK, max_slot)
        )
        if slots is not None:
            for k in range(slots.shape[1]):
                act = (counts > k) & ~fin & ~dead
                n_act = int(np.count_nonzero(act))
                if n_act == 0:
                    break
                events += n_act
                slot = slots[:, k]
                starting = act & ~started
                # A gap between consecutive accepted events means the
                # lane was out-bid in between: terminal for one-time.
                run_now = starting | (act & started & (slot == last + 1))
                dead = dead | (act & started & (slot != last + 1))
                used = np.minimum(w, slot_len)
                used = np.where(w > slot_len + _EPS, slot_len, used)
                price = np.where(run_now, prices[trace, slot], 0.0)
                l_cost = np.where(run_now, l_cost + price * used, l_cost)
                l_run = np.where(run_now, l_run + used, l_run)
                w = np.where(run_now, w - used, w)
                fin_now = run_now & (w <= _EPS)
                l_ct = np.where(fin_now, slot * slot_len + used, l_ct)
                fin = fin | fin_now
                started = started | starting
                start_slot = np.where(starting, slot, start_slot)
                last = np.where(run_now, slot, last)
                seen = seen + act
        done = fin | dead | (seen == cnt)
        if done.any():
            ids = lane[done]
            o_fin[ids] = fin[done]
            o_cost[ids] = l_cost[done]
            o_ct[ids] = l_ct[done]
            o_run[ids] = l_run[done]
            o_started[ids] = started[done]
            o_start[ids] = start_slot[done]
            keep = ~done
            lane, trace, cnt, bid = lane[keep], trace[keep], cnt[keep], bid[keep]
            w = w[keep]
            l_cost, l_run, l_ct = l_cost[keep], l_run[keep], l_ct[keep]
            started, dead, fin = started[keep], dead[keep], fin[keep]
            start_slot, last, seen = start_slot[keep], last[keep], seen[keep]
    assert trace.size == 0, "event loop left live lanes behind"

    lane_valid = n_valid[u_trace]
    idle_lane = np.where(
        o_started, o_start * slot_length, lane_valid * slot_length
    )
    completed.ravel()[flat_alive] = o_fin[inverse]
    cost.ravel()[flat_alive] = o_cost[inverse]
    completion_time.ravel()[flat_alive] = o_ct[inverse]
    running.ravel()[flat_alive] = o_run[inverse]
    idle.ravel()[flat_alive] = idle_lane[inverse]
    result["slots_simulated"] = events
    return result
