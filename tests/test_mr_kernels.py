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
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.fig7_mapreduce_costs as fig7
import repro.experiments.table4_mapreduce_plans as table4
from repro.core.types import BidDecision, BidKind, MapReduceJobSpec, MapReducePlan
from repro.errors import MarketError, PlanError
from repro.experiments.common import FAST_CONFIG
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


def random_plan(rng, max_work=0.3):
    return make_plan(
        master_bid=float(rng.choice([0.05, 0.4, 0.7, 1.1, 5.0])),
        slave_bid=float(rng.choice([0.05, 0.4, 0.7, 1.1, 5.0])),
        num_slaves=int(rng.integers(1, 5)),
        work=float(rng.uniform(0.02, max_work)),
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


def sticky_trace(rng, n_slots):
    """Geometric-length episodes at a few levels: long accepted runs and
    long gaps, the texture of the paper's renewal futures."""
    levels = rng.choice([0.1, 0.45, 0.8, 1.5, 3.0], size=n_slots)
    lengths = rng.geometric(0.15, size=n_slots)
    prices = np.repeat(levels, lengths)[:n_slots]
    return SpotPriceHistory(prices=np.ascontiguousarray(prices), slot_length=SLOT)


def flat_trace(price, n_slots=300):
    return SpotPriceHistory(prices=np.full(n_slots, price), slot_length=SLOT)


def assert_bitwise(ref: MapReduceGridResult, got: MapReduceGridResult):
    for key, expected in ref.to_dict().items():
        actual = got.to_dict()[key]
        assert np.array_equal(expected, actual, equal_nan=True), (
            f"{key} diverged:\n ref={expected}\n got={actual}"
        )


def assert_same_bits(ref: MapReduceGridResult, got: MapReduceGridResult):
    """Every field equal byte for byte: NaN payloads and signed zeros too."""
    for key, expected in ref.to_dict().items():
        actual = got.to_dict()[key]
        assert expected.dtype == actual.dtype and expected.shape == actual.shape
        assert expected.tobytes() == actual.tobytes(), (
            f"{key} diverged:\n ref={expected}\n got={actual}"
        )


def _plan_error(**kwargs):
    with pytest.raises(PlanError) as info:
        run_plan_grid(**kwargs)
    return str(info.value)


@st.composite
def staggered_grids(draw):
    """1-24 lanes over ragged trace rows, each run started anywhere its
    window fits: windows end at a row's last slot (inside the +inf
    padding of the stacked matrix) or at ``max_slots``."""
    n_plans = draw(st.integers(1, 3))
    n_runs = draw(st.integers(1, 24 // n_plans))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Up to 90 slots of work per slave, so walks span several blocks.
    plans = [random_plan(rng, max_work=1.5) for _ in range(n_plans)]
    n_rows = draw(st.integers(1, n_runs))
    # Lengths and budgets next to a multiple of the 32-slot scan block.
    edges = st.sampled_from([31, 32, 33, 34, 63, 64, 65, 66, 97, 98, 129, 130])

    def rows():
        length = st.integers(2, 260) | edges
        lengths = draw(st.lists(length, min_size=n_rows, max_size=n_rows))
        make = (random_trace, sticky_trace)
        return [make[int(rng.integers(2))](rng, k) for k in lengths]

    m_rows, s_rows = rows(), rows()
    pick = st.lists(st.integers(0, n_rows - 1), min_size=n_runs, max_size=n_runs)
    masters = [m_rows[i] for i in draw(pick)]
    slaves = [s_rows[i] for i in draw(pick)]
    starts = [
        draw(st.integers(0, min(m.n_slots, s.n_slots) - 1))
        for m, s in zip(masters, slaves)
    ]
    kwargs = dict(
        plans=plans,
        master_traces=masters,
        slave_traces=slaves,
        start_slots=starts,
        max_slots=draw(st.none() | st.integers(1, 260) | edges),
        max_master_restarts=draw(st.integers(0, 3)),
    )
    run = draw(st.integers(0, n_runs - 1))
    bad_starts = list(starts)
    bad_starts[run] = draw(
        st.integers(-5, -1)
        | st.integers(min(masters[run].n_slots, slaves[run].n_slots), 300)
    )
    bad = draw(
        st.sampled_from(
            [
                {"max_slots": draw(st.integers(-3, 0))},
                {"max_master_restarts": draw(st.integers(-3, -1))},
                {"start_slots": bad_starts},
            ]
        )
    )
    return kwargs, bad


class TestRunPlanGridContract:
    """``run_plan_grid``'s two lanes agree on every grid they accept and
    refuse the same bad arguments alike."""

    @settings(max_examples=100, deadline=None)
    @given(case=staggered_grids())
    def test_event_lane_equals_scalar_lane(self, case):
        kwargs, bad = case
        ref = run_plan_grid(kernel="scalar", **kwargs)
        got = run_plan_grid(kernel="event", **kwargs)
        assert_same_bits(ref, got)
        broken = {**kwargs, **bad}
        assert _plan_error(kernel="event", **broken) == _plan_error(
            kernel="scalar", **broken
        )

    @pytest.mark.parametrize("module", [table4, fig7], ids=["table4", "fig7"])
    def test_paper_grids_match_scalar(self, module, monkeypatch):
        """The paper's own grids at FAST_CONFIG: one plan over renewal
        futures started at calm slots spread over their first day."""
        starts_seen = []

        def both_lanes(plans, masters, slaves, **kwargs):
            got = run_plan_grid(plans, masters, slaves, **kwargs)
            ref = run_plan_grid(plans, masters, slaves, kernel="scalar", **kwargs)
            assert got.kernel == "event"
            assert_same_bits(ref, got)
            starts_seen.append(kwargs["start_slots"])
            return got

        monkeypatch.setattr(module, "run_plan_grid", both_lanes)
        module.run(FAST_CONFIG)
        assert len(starts_seen) == 5
        assert all(len(set(starts)) > 1 for starts in starts_seen)


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
            ({"max_slots": 0}, PlanError, "max_slots"),
            ({"max_slots": -5}, PlanError, "max_slots"),
            ({"start_slots": -1}, PlanError, "start_slot"),
            ({"max_master_restarts": -1}, PlanError, "max_master_restarts"),
        ],
        ids=["max-slots-0", "max-slots-neg", "start-neg", "restarts-neg"],
    )
    @pytest.mark.parametrize(
        "lane", [{"kernel": "event"}, {"kernel": "scalar"}], ids=["event", "scalar"]
    )
    def test_bad_arguments_rejected_alike_on_every_lane(
        self, lane, bad, error, match
    ):
        trace = flat_trace(0.1, n_slots=100)
        with pytest.raises(error, match=match):
            run_plan_grid(make_plan(), trace, trace, **{**lane, **bad})


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
