"""Batched MapReduce plan-evaluation kernel (Section 6, vectorized).

:func:`~repro.mapreduce.runner.run_plan_on_traces` drives two
``SpotMarket`` objects slot-by-slot in pure Python — the right oracle,
but figure 7, table 4 and the chaos harness evaluate whole *grids* of
(master bid × slave bid × M × start slot) plans against stacks of trace
pairs, so the scalar inner loop dominates their wall time.  The kernel
here evaluates every lane of such a grid at once and is **bitwise
identical** to the scalar runner on every result field.

Two exact observations make the vectorization possible:

1. **Both markets are memoryless given acceptance.**  The master (a
   one-time request with infinite work) is RUNNING after slot ``t`` iff
   slot ``t`` was accepted — restarts resubmit immediately, so a
   rejected slot always means "pending", an accepted one "running".
   Down-edges (previous slot accepted, this one not) are exactly the
   master failures; the ``(K+1)``-th one exhausts the restart budget.
2. **All M slaves are interchangeable.**  The scheduler hands every
   slave the same work share at the same bid, so one persistent-lane
   simulation serves all M; the scalar runner's ``sum()`` over M equal
   costs is replayed as M sequential additions to keep the float fold
   order (and hence the bits) identical.

Float accumulators advance in exactly the scalar engine's per-slot
operation order; the master's per-attempt billing is folded at each
down-edge so ``sum(outcome(attempt).cost)``'s left-fold is reproduced
add-for-add.

:func:`mapreduce_grid_kernel_event` reuses the block scan of
:mod:`repro.sweep.kernels` (the ``price <= bid`` threshold test) to
walk only *accepted* slots per lane, in four stages: find each
master's first up-slot, simulate the slave window, walk the master's
billing/restart/completion events, then re-simulate the (rare) slave
windows truncated by a master restart cap.

Each lane scans in a frame of its own: a block is a range of 32
*offsets* from the lane's window start, not of absolute slots.  Table 4
and Figure 7 start every run at a calm slot somewhere in its future's
first day.  In absolute slots the lockstep loop would step through
every block from the earliest start to the latest window end, with
most lanes idle in most of them; in lane frames every run starts in
the first block.  A lane's float accumulators see the same operations
in the same order either way.

Grid-level orchestration (plan/trace normalization and the scalar
oracle lane) lives in :mod:`repro.mapreduce.grid`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import MarketError
from ..sweep.kernels import _BLOCK, _EPS, _block_events
from .runner import TerminationReason

__all__ = ["TERMINATION_CODES", "mapreduce_grid_kernel_event"]

#: ``termination`` array codes, index-aligned with this tuple.
TERMINATION_CODES: Tuple[TerminationReason, ...] = (
    TerminationReason.COMPLETED,
    TerminationReason.RESTARTS_EXHAUSTED,
    TerminationReason.BUDGET_EXHAUSTED,
    TerminationReason.SLAVES_NEVER_SUBMITTED,
)
_COMPLETED, _RESTARTS, _BUDGET, _NEVER = range(4)

_NO_SLOT = np.iinfo(np.int64).max


def _check_lanes(
    master_prices: np.ndarray,
    slave_prices: np.ndarray,
    lanes: Sequence[np.ndarray],
    slot_length: float,
    max_master_restarts: int,
) -> int:
    if master_prices.ndim != 2 or slave_prices.ndim != 2:
        raise MarketError("price stacks must be 2-D (rows, slots)")
    if slot_length <= 0:
        raise MarketError(f"slot_length must be positive, got {slot_length!r}")
    if max_master_restarts < 0:
        raise MarketError(
            f"max_master_restarts must be >= 0, got {max_master_restarts!r}"
        )
    n_lanes = lanes[0].size
    for arr in lanes:
        if arr.shape != (n_lanes,):
            raise MarketError("lane arrays must share one 1-D shape")
    return n_lanes


def _result(n_lanes: int) -> Dict[str, np.ndarray]:
    return {
        "completed": np.zeros(n_lanes, dtype=bool),
        "completion_time": np.full(n_lanes, np.nan),
        "master_cost": np.zeros(n_lanes),
        "slave_cost": np.zeros(n_lanes),
        "slave_interruptions": np.zeros(n_lanes, dtype=np.int64),
        "master_restarts": np.zeros(n_lanes, dtype=np.int64),
        "termination": np.full(n_lanes, _BUDGET, dtype=np.int8),
        "slots_simulated": 0,
    }


def _fold_slaves(
    single_cost: np.ndarray, single_intr: np.ndarray, n_slaves: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Total slave cost/interruptions over ``M`` identical slaves.

    The cost replays the scalar ``sum()``'s left fold — M sequential
    additions of the same float — because ``M * c`` rounds differently.
    """
    total = np.zeros_like(single_cost)
    max_m = int(n_slaves.max()) if n_slaves.size else 0
    for k in range(max_m):
        total = np.where(k < n_slaves, total + single_cost, total)
    return total, n_slaves * single_intr


def _first_events(
    prices: np.ndarray,
    row: np.ndarray,
    bid: np.ndarray,
    lo_arr: np.ndarray,
    hi_arr: np.ndarray,
    block: int,
) -> Tuple[np.ndarray, int]:
    """First accepted slot per lane within its window (-1 when none)."""
    n = row.size
    first = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    r_row, r_bid, r_lo, r_hi = row, bid, lo_arr, hi_arr
    lo = 0
    max_len = int((hi_arr - lo_arr).max()) if n else 0
    events = 0
    while idx.size and lo < max_len:
        hi = min(lo + block, max_len)
        slots, counts = _block_events(prices, r_row, r_bid, lo, hi, r_lo, r_hi)
        hit = counts > 0
        if slots is not None and hit.any():
            events += int(np.count_nonzero(hit))
            first[idx[hit]] = slots[hit, 0]
        done = hit | (r_lo + hi >= r_hi)
        keep = ~done
        idx, r_row, r_bid, r_lo, r_hi = (
            idx[keep], r_row[keep], r_bid[keep], r_lo[keep], r_hi[keep]
        )
        lo = hi
    return first, events


def _slave_walk(
    slave_prices: np.ndarray,
    row: np.ndarray,
    bid: np.ndarray,
    lo_arr: np.ndarray,
    hi_arr: np.ndarray,
    work: np.ndarray,
    recovery: np.ndarray,
    slot_len: float,
    rel_base: np.ndarray,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Event-driven persistent-slave simulation over per-lane windows.

    Returns ``(cost, interruptions, done, completed_at_rel, t_c_abs,
    events)`` for one representative slave per lane.  Interruptions are
    inferred from gaps between consecutive accepted events (the engine
    knocks the instance back at the first rejected slot after a run)
    plus a trailing knock when the window continues past the last
    accepted slot.
    """
    n = row.size
    o_cost = np.zeros(n)
    o_intr = np.zeros(n, dtype=np.int64)
    o_done = np.zeros(n, dtype=bool)
    o_ct = np.zeros(n)
    o_tc = np.full(n, _NO_SLOT, dtype=np.int64)

    idx = np.arange(n)
    r_row, r_bid, r_lo, r_hi = row, bid, lo_arr, hi_arr
    r_base, r_rec = rel_base, recovery
    pend = np.zeros(n)
    w = work.astype(float).copy()
    cost = np.zeros(n)
    intr = np.zeros(n, dtype=np.int64)
    fin = np.zeros(n, dtype=bool)
    ct = np.zeros(n)
    tc = np.full(n, _NO_SLOT, dtype=np.int64)
    prev = np.full(n, -1, dtype=np.int64)

    events = 0
    lo = 0
    max_len = int((hi_arr - lo_arr).max()) if n else 0
    while idx.size and lo < max_len:
        hi = min(lo + block, max_len)
        slots, counts = _block_events(
            slave_prices, r_row, r_bid, lo, hi, r_lo, r_hi
        )
        if slots is not None:
            for k in range(slots.shape[1]):
                act = (counts > k) & ~fin
                n_act = int(np.count_nonzero(act))
                if n_act == 0:
                    break
                events += n_act
                slot = slots[:, k]
                price = np.where(act, slave_prices[r_row, slot], 0.0)
                # A gap since the previous accepted event means the
                # instance was knocked back at ``prev + 1`` (full
                # recovery-timer reset) and resumes now.
                resume = act & (prev >= 0) & (slot > prev + 1)
                intr = intr + resume
                pend = np.where(resume, r_rec, pend)
                m1 = act & (pend > 0.0)
                step1 = np.where(m1, np.minimum(pend, slot_len), 0.0)
                pend = pend - step1
                budget_h = slot_len - step1
                used = step1
                m2 = act & (budget_h > 0.0) & (w > 0.0)
                step2 = np.where(m2, np.minimum(w, budget_h), 0.0)
                w = w - step2
                used = used + step2
                used = np.where(act & (w > _EPS), slot_len, used)
                cost = np.where(act, cost + price * used, cost)
                fin_now = act & (w <= _EPS)
                ct = np.where(fin_now, (slot - r_base) * slot_len + used, ct)
                tc = np.where(fin_now, slot, tc)
                fin = fin | fin_now
                prev = np.where(act, slot, prev)
        done = fin | (r_lo + hi >= r_hi)
        if done.any():
            # Trailing knock: the window continues past the last
            # accepted slot of an unfinished lane.
            trail = done & ~fin & (prev >= 0) & (prev < r_hi - 1)
            intr = intr + trail
            ids = idx[done]
            o_cost[ids] = cost[done]
            o_intr[ids] = intr[done]
            o_done[ids] = fin[done]
            o_ct[ids] = ct[done]
            o_tc[ids] = tc[done]
            keep = ~done
            idx, r_row, r_bid, r_lo, r_hi = (
                idx[keep], r_row[keep], r_bid[keep], r_lo[keep], r_hi[keep]
            )
            r_base, r_rec = r_base[keep], r_rec[keep]
            pend, w, cost, intr = pend[keep], w[keep], cost[keep], intr[keep]
            fin, ct, tc, prev = fin[keep], ct[keep], tc[keep], prev[keep]
        lo = hi
    return o_cost, o_intr, o_done, o_ct, o_tc, events


def mapreduce_grid_kernel_event(
    master_prices: np.ndarray,
    slave_prices: np.ndarray,
    *,
    lane_mrow: np.ndarray,
    lane_srow: np.ndarray,
    lane_start: np.ndarray,
    lane_budget: np.ndarray,
    lane_master_bid: np.ndarray,
    lane_slave_bid: np.ndarray,
    lane_slaves: np.ndarray,
    lane_work: np.ndarray,
    lane_recovery: np.ndarray,
    slot_length: float,
    max_master_restarts: int = 50,
) -> Dict[str, np.ndarray]:
    """Event-driven batched evaluation of a MapReduce plan grid.

    One *lane* is one (plan, run) pair: ``lane_mrow``/``lane_srow``
    select the master/slave trace rows, ``lane_start`` the absolute
    start slot, ``lane_budget`` how many slots may be simulated
    (already clipped to trace length and ``max_slots``), and the
    remaining arrays carry the plan parameters (bids, slave count M,
    per-slave work share, slave recovery time).  Returns per-lane
    arrays bitwise identical to the scalar runner's
    ``MapReduceRunResult`` fields plus a ``termination`` code array
    (see :data:`TERMINATION_CODES`); ``slots_simulated`` counts
    executed lane-events (accepted slots actually walked).

    Rejected slots are skipped entirely: a pending master and an idle
    or knocked-back slave touch no accumulator, and run boundaries
    (master failures, slave knock-backs) fall out of gaps between
    consecutive accepted events.
    """
    lanes = (
        lane_mrow, lane_srow, lane_start, lane_budget, lane_master_bid,
        lane_slave_bid, lane_slaves, lane_work, lane_recovery,
    )
    n_lanes = _check_lanes(
        master_prices, slave_prices, lanes, slot_length, max_master_restarts
    )
    out = _result(n_lanes)
    if n_lanes == 0:
        return out

    slot_len = float(slot_length)
    cap_k = int(max_master_restarts)
    win_lo = lane_start.astype(np.int64)
    win_hi = win_lo + lane_budget.astype(np.int64)

    events = 0

    # Stage 1 — first master-up slot: fixes each lane's slave submission
    # slot (t_first + 1); lanes whose master never comes up are done.
    t_first, ev = _first_events(
        master_prices, lane_mrow, lane_master_bid, win_lo, win_hi, _BLOCK
    )
    events += ev
    never = t_first < 0
    out["termination"][never] = _NEVER

    # Stage 2 — one representative slave per launched lane, optimistic
    # window [t_first + 1, win_hi); master-cap truncation is rare and
    # fixed up in stage 4.
    launched = np.flatnonzero(~never)
    s_cost = np.zeros(n_lanes)
    s_intr = np.zeros(n_lanes, dtype=np.int64)
    s_done = np.zeros(n_lanes, dtype=bool)
    s_ct = np.zeros(n_lanes)
    t_c = np.full(n_lanes, _NO_SLOT, dtype=np.int64)
    t_sub = np.full(n_lanes, _NO_SLOT, dtype=np.int64)
    if launched.size:
        t_sub[launched] = t_first[launched] + 1
        cost, intr, done, ct, tc, ev = _slave_walk(
            slave_prices, lane_srow[launched], lane_slave_bid[launched],
            t_sub[launched], win_hi[launched], lane_work[launched],
            lane_recovery[launched], slot_len, win_lo[launched], _BLOCK,
        )
        events += ev
        s_cost[launched] = cost
        s_intr[launched] = intr
        s_done[launched] = done
        s_ct[launched] = ct
        t_c[launched] = tc

    # Stage 3 — master billing / restart / completion walk.  Lanes
    # retire at the restart cap, at completion (first up-slot at or
    # after the slaves' completion slot), or at window end.
    completed = out["completed"]
    term = out["termination"]
    restarts = out["master_restarts"]
    ct_out = out["completion_time"]
    m_tot = np.zeros(n_lanes)
    t_break = np.full(n_lanes, _NO_SLOT, dtype=np.int64)

    if launched.size:
        idx = launched.copy()
        r_row = lane_mrow[idx]
        r_bid = lane_master_bid[idx]
        r_lo, r_hi = win_lo[idx], win_hi[idx]
        r_tc = t_c[idx]
        m_acc = np.zeros(idx.size)
        tot = np.zeros(idx.size)
        downs = np.zeros(idx.size, dtype=np.int64)
        prev = np.full(idx.size, -1, dtype=np.int64)
        capped = np.zeros(idx.size, dtype=bool)
        comp = np.zeros(idx.size, dtype=bool)
        brk = np.full(idx.size, _NO_SLOT, dtype=np.int64)

        lo = 0
        max_len = int((r_hi - r_lo).max())
        while idx.size and lo < max_len:
            hi = min(lo + _BLOCK, max_len)
            slots, counts = _block_events(
                master_prices, r_row, r_bid, lo, hi, r_lo, r_hi
            )
            if slots is not None:
                for k in range(slots.shape[1]):
                    act = (counts > k) & ~capped & ~comp
                    n_act = int(np.count_nonzero(act))
                    if n_act == 0:
                        break
                    events += n_act
                    slot = slots[:, k]
                    # A gap means the attempt failed at prev + 1: fold
                    # its bill; the (K+1)-th failure is the cap.
                    gap = act & (prev >= 0) & (slot > prev + 1)
                    tot = np.where(gap, tot + m_acc, tot)
                    m_acc = np.where(gap, 0.0, m_acc)
                    downs = downs + gap
                    cap_now = gap & (downs == cap_k + 1)
                    capped = capped | cap_now
                    brk = np.where(cap_now, prev + 1, brk)
                    live = act & ~cap_now
                    price = np.where(live, master_prices[r_row, slot], 0.0)
                    m_acc = np.where(live, m_acc + price * slot_len, m_acc)
                    comp_now = live & (slot >= r_tc)
                    if comp_now.any():
                        tot = np.where(comp_now, tot + m_acc, tot)
                        comp = comp | comp_now
                    prev = np.where(live, slot, prev)
            done = capped | comp | (r_lo + hi >= r_hi)
            if done.any():
                # Budget-exhausted lanes: a trailing gap is one more
                # failure — possibly the capping one — and the open
                # attempt's bill folds in either way (zero after a
                # fold at the trailing failure's resubmission).
                ended = done & ~capped & ~comp
                trail = ended & (prev >= 0) & (prev < r_hi - 1)
                tot = np.where(trail, tot + m_acc, tot)
                m_acc = np.where(trail, 0.0, m_acc)
                downs = downs + trail
                late_cap = trail & (downs == cap_k + 1)
                capped = capped | late_cap
                brk = np.where(late_cap, prev + 1, brk)
                tot = np.where(ended & ~trail, tot + m_acc, tot)

                ids = idx[done]
                m_tot[ids] = tot[done]
                restarts[ids] = np.minimum(downs[done], cap_k)
                completed[ids] = comp[done]
                term[ids] = np.where(
                    comp[done], _COMPLETED,
                    np.where(capped[done], _RESTARTS, _BUDGET),
                ).astype(np.int8)
                t_break[ids] = brk[done]
                done_comp = done & comp
                if done_comp.any():
                    cids = idx[done_comp]
                    # t_sub is absolute here; the scalar rebases with the
                    # *relative* submission slot.
                    t_sub_h = (t_sub[cids] - win_lo[cids]) * slot_len
                    ct_out[cids] = t_sub_h + (s_ct[cids] - t_sub_h)
                keep = ~done
                idx, r_row, r_bid, r_lo, r_hi, r_tc = (
                    idx[keep], r_row[keep], r_bid[keep],
                    r_lo[keep], r_hi[keep], r_tc[keep],
                )
                m_acc, tot, downs, prev = (
                    m_acc[keep], tot[keep], downs[keep], prev[keep]
                )
                capped, comp, brk = capped[keep], comp[keep], brk[keep]
            lo = hi

    # Stage 4 — fix-up: lanes capped before window end simulated their
    # slave optimistically too far; redo them with the true horizon
    # min(win_hi, t_break + 1) (the break slot itself is still stepped).
    redo = np.flatnonzero((term == _RESTARTS) & (t_break + 1 < win_hi))
    if redo.size:
        cost, intr, done, ct, tc, ev = _slave_walk(
            slave_prices, lane_srow[redo], lane_slave_bid[redo],
            t_sub[redo], t_break[redo] + 1, lane_work[redo],
            lane_recovery[redo], slot_len, win_lo[redo], _BLOCK,
        )
        events += ev
        s_cost[redo] = cost
        s_intr[redo] = intr

    out["master_cost"] = m_tot
    slave_total, intr_total = _fold_slaves(s_cost, s_intr, lane_slaves)
    out["slave_cost"] = slave_total
    out["slave_interruptions"] = intr_total
    out["slots_simulated"] = events
    return out
