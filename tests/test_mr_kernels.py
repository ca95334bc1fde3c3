"""The batched MapReduce kernel vs. the scalar runner, bitwise.

The event grid kernel promises *bitwise-identical* outputs to
:func:`repro.mapreduce.runner.run_plan_on_traces` — same float
accumulation order, same termination semantics.  These tests sweep
randomized plan grids, traces and start slots against the scalar
oracle, plus the edge cases that historically break lockstep
simulators: penultimate start slots, a zero restart budget, masters
that never launch, and ``max_slots`` truncation.
"""

import numpy as np
import pytest

from repro.core.types import BidDecision, BidKind, MapReduceJobSpec, MapReducePlan
from repro.errors import MarketError, PlanError, SweepExecutionError
from repro.mapreduce import (
    TERMINATION_CODES,
    MapReduceGridResult,
    TerminationReason,
    run_plan_grid,
    run_plan_on_traces,
)
from repro.traces.history import SpotPriceHistory

SLOT = 1.0 / 60.0

KERNELS = ("event",)


def make_plan(
    master_bid=0.5,
    slave_bid=0.5,
    num_slaves=2,
    work=0.1,
    recovery=0.0,
    slot_length=SLOT,
):
    job = MapReduceJobSpec(
        execution_time=work * num_slaves,
        num_slaves=num_slaves,
        recovery_time=recovery,
        slot_length=slot_length,
    )
    return MapReducePlan(
        job=job,
        master_bid=BidDecision(
            price=master_bid, kind=BidKind.ONE_TIME, expected_cost=0.1
        ),
        slave_bid=BidDecision(
            price=slave_bid, kind=BidKind.PERSISTENT, expected_cost=0.1
        ),
        required_master_time=1.0,
        min_slaves=1,
    )


def random_plan(rng):
    return make_plan(
        master_bid=float(rng.choice([0.05, 0.4, 0.7, 1.1, 5.0])),
        slave_bid=float(rng.choice([0.05, 0.4, 0.7, 1.1, 5.0])),
        num_slaves=int(rng.integers(1, 5)),
        work=float(rng.uniform(0.02, 0.3)),
        recovery=float(rng.choice([0.0, 0.002, 0.01])),
    )


def random_trace(rng, n_slots):
    base = rng.uniform(0.3, 1.0)
    prices = base + rng.exponential(0.25, n_slots) * rng.integers(0, 2, n_slots)
    spikes = rng.random(n_slots) < 0.1
    prices = np.where(spikes, prices + rng.uniform(0.5, 3.0, n_slots), prices)
    return SpotPriceHistory(
        prices=np.ascontiguousarray(prices), slot_length=SLOT
    )


def flat_trace(price, n_slots=300):
    return SpotPriceHistory(prices=np.full(n_slots, price), slot_length=SLOT)


def assert_bitwise(ref: MapReduceGridResult, got: MapReduceGridResult):
    for key, expected in ref.to_dict().items():
        actual = got.to_dict()[key]
        assert np.array_equal(expected, actual, equal_nan=True), (
            f"{key} diverged:\n ref={expected}\n got={actual}"
        )


class TestRandomizedEquivalence:
    """Seeded plan grids × traces × start slots, all fields bitwise."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", range(8))
    def test_grid_matches_scalar(self, kernel, seed):
        rng = np.random.default_rng(1000 + seed)
        plans = [random_plan(rng) for _ in range(int(rng.integers(1, 5)))]
        n_runs = int(rng.integers(1, 4))
        n_slots = int(rng.integers(40, 250))
        m_traces, s_traces, starts = [], [], []
        shared_m, shared_s = random_trace(rng, n_slots), random_trace(rng, n_slots)
        for _ in range(n_runs):
            if rng.random() < 0.5:
                # Shared trace objects dedupe into one stacked row.
                m_traces.append(shared_m)
                s_traces.append(shared_s)
            else:
                k = int(rng.integers(30, n_slots + 1))
                m_traces.append(random_trace(rng, k))
                s_traces.append(random_trace(rng, k))
            lim = min(m_traces[-1].n_slots, s_traces[-1].n_slots)
            starts.append(int(rng.integers(0, lim - 1)))
        max_slots = None if rng.random() < 0.6 else int(rng.integers(5, n_slots))
        cap = int(rng.choice([0, 1, 3, 50]))
        kwargs = dict(
            start_slots=starts, max_slots=max_slots, max_master_restarts=cap
        )
        ref = run_plan_grid(plans, m_traces, s_traces, kernel="scalar", **kwargs)
        got = run_plan_grid(plans, m_traces, s_traces, kernel=kernel, **kwargs)
        assert_bitwise(ref, got)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cell_view_matches_scalar_runner(self, kernel):
        rng = np.random.default_rng(7)
        plans = [random_plan(rng) for _ in range(3)]
        trace_m, trace_s = random_trace(rng, 120), random_trace(rng, 120)
        starts = [0, 30, 110]
        grid = run_plan_grid(
            plans, trace_m, trace_s, start_slots=starts, kernel=kernel
        )
        for i, plan in enumerate(plans):
            for j, start in enumerate(starts):
                scalar = run_plan_on_traces(
                    plan, trace_m, trace_s, start_slot=start
                )
                cell = grid.result(i, j)
                # Dataclass == is NaN-hostile; compare fields bitwise.
                assert np.array_equal(
                    cell.completion_time, scalar.completion_time, equal_nan=True
                )
                for field in (
                    "completed",
                    "master_cost",
                    "slave_cost",
                    "slave_interruptions",
                    "master_restarts",
                    "termination_reason",
                ):
                    assert getattr(cell, field) == getattr(scalar, field)


class TestEdgeCases:
    """The corners that historically break lockstep simulators."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_penultimate_start_slot(self, kernel):
        # One simulated slot: the master launches but slaves (submitted
        # for the *next* slot) never advance.
        trace = flat_trace(0.1, n_slots=50)
        plan = make_plan(master_bid=0.5, slave_bid=0.5)
        grid = run_plan_grid(
            plan, trace, trace, start_slots=49, kernel=kernel
        )
        ref = run_plan_grid(plan, trace, trace, start_slots=49, kernel="scalar")
        assert_bitwise(ref, grid)
        assert grid.termination_reason(0, 0) is TerminationReason.BUDGET_EXHAUSTED

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_restart_budget(self, kernel):
        # Master up for 3 slots, then priced out: with
        # max_master_restarts=0 the first down-edge ends the run.
        prices = np.concatenate([np.full(3, 0.1), np.full(60, 2.0)])
        trace_m = SpotPriceHistory(prices=prices, slot_length=SLOT)
        trace_s = flat_trace(0.1, n_slots=63)
        plan = make_plan(master_bid=0.5, slave_bid=0.5, work=1.0)
        kwargs = dict(max_master_restarts=0, kernel=kernel)
        grid = run_plan_grid(plan, trace_m, trace_s, **kwargs)
        ref = run_plan_grid(
            plan, trace_m, trace_s, max_master_restarts=0, kernel="scalar"
        )
        assert_bitwise(ref, grid)
        assert grid.termination_reason(0, 0) is TerminationReason.RESTARTS_EXHAUSTED
        assert grid.master_restarts[0, 0] == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_master_never_running(self, kernel):
        trace = flat_trace(1.0, n_slots=80)
        plan = make_plan(master_bid=0.2, slave_bid=5.0)
        grid = run_plan_grid(plan, trace, trace, kernel=kernel)
        ref = run_plan_grid(plan, trace, trace, kernel="scalar")
        assert_bitwise(ref, grid)
        assert (
            grid.termination_reason(0, 0)
            is TerminationReason.SLAVES_NEVER_SUBMITTED
        )
        assert grid.master_cost[0, 0] == 0.0
        assert grid.slave_cost[0, 0] == 0.0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("max_slots", [1, 2, 7, 40])
    def test_max_slots_truncation(self, kernel, max_slots):
        rng = np.random.default_rng(42)
        trace_m, trace_s = random_trace(rng, 90), random_trace(rng, 90)
        plans = [random_plan(rng) for _ in range(3)]
        kwargs = dict(start_slots=[0, 15], max_slots=max_slots)
        ref = run_plan_grid(
            plans, trace_m, trace_s, kernel="scalar", **kwargs
        )
        got = run_plan_grid(plans, trace_m, trace_s, kernel=kernel, **kwargs)
        assert_bitwise(ref, got)

    def test_empty_window_raises(self):
        trace = flat_trace(0.1, n_slots=10)
        with pytest.raises(PlanError):
            run_plan_grid(make_plan(), trace, trace, start_slots=10)

    def test_mismatched_slot_length_raises(self):
        trace = flat_trace(0.1)
        other = SpotPriceHistory(prices=np.full(50, 0.1), slot_length=0.5)
        with pytest.raises(PlanError):
            run_plan_grid(make_plan(), trace, other)


class TestDispatchAndFanout:
    def test_default_lane_is_the_kernel(self):
        trace = flat_trace(0.1)
        assert run_plan_grid(make_plan(), trace, trace).kernel == "event"

    def test_unknown_kernel_raises(self):
        trace = flat_trace(0.1)
        for kernel in ("gpu", "compiled", "dense"):
            with pytest.raises(MarketError):
                run_plan_grid(make_plan(), trace, trace, kernel=kernel)

    @pytest.mark.parametrize(
        "bad,error,match",
        [
            ({"max_workers": 0}, SweepExecutionError, "max_workers"),
            ({"max_workers": -3}, SweepExecutionError, "max_workers"),
            ({"max_slots": 0}, PlanError, "max_slots"),
            ({"max_slots": -5}, PlanError, "max_slots"),
            ({"start_slots": -1}, PlanError, "start_slot"),
            ({"max_master_restarts": -1}, PlanError, "max_master_restarts"),
        ],
        ids=[
            "workers-0", "workers-neg", "max-slots-0", "max-slots-neg",
            "start-neg", "restarts-neg",
        ],
    )
    @pytest.mark.parametrize(
        "lane",
        [
            {"kernel": "event"},
            {"kernel": "scalar"},
            {"kernel": "event", "max_workers": 2},
        ],
        ids=["event", "scalar", "event-fanout"],
    )
    def test_bad_arguments_rejected_alike_on_every_lane(
        self, lane, bad, error, match
    ):
        trace = flat_trace(0.1, n_slots=100)
        with pytest.raises(error, match=match):
            run_plan_grid(make_plan(), trace, trace, **{**lane, **bad})

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_process_fanout_bitwise(self, kernel):
        rng = np.random.default_rng(11)
        plans = [random_plan(rng) for _ in range(4)]
        m = [random_trace(rng, 150) for _ in range(3)]
        s = [random_trace(rng, 150) for _ in range(3)]
        starts = [0, 20, 100]
        ref = run_plan_grid(plans, m, s, start_slots=starts, kernel="scalar")
        fan = run_plan_grid(
            plans,
            m,
            s,
            start_slots=starts,
            kernel=kernel,
            max_workers=2,
        )
        assert_bitwise(ref, fan)


class TestGridResultApi:
    def test_termination_counts_and_results(self):
        trace = flat_trace(0.1)
        plans = [make_plan(), make_plan(master_bid=0.01)]
        grid = run_plan_grid(
            plans, trace, trace, start_slots=[0, 5], kernel="event"
        )
        counts = grid.termination_counts(0)
        assert counts["completed"] == 2
        assert sum(counts.values()) == grid.n_runs
        counts_bad = grid.termination_counts(1)
        assert counts_bad["slaves_never_submitted"] == 2
        rows = grid.results(0)
        assert len(rows) == 2 and all(r.completed for r in rows)
        assert set(counts) == {reason.value for reason in TERMINATION_CODES}

    def test_total_cost(self):
        trace = flat_trace(0.1)
        grid = run_plan_grid(make_plan(), trace, trace, kernel="event")
        assert np.array_equal(
            grid.total_cost, grid.master_cost + grid.slave_cost
        )
