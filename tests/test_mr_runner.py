"""The dual-market MapReduce runner."""

import math

import numpy as np
import pytest

from repro.constants import seconds
from repro.core.types import BidDecision, BidKind, MapReduceJobSpec, MapReducePlan
from repro.errors import PlanError
from repro.mapreduce.runner import (
    TerminationReason,
    ondemand_baseline,
    run_plan_on_traces,
)
from repro.traces.history import SpotPriceHistory

TK = 1.0 / 12.0


def make_plan(master_bid=0.05, slave_bid=0.05, num_slaves=2, ts=1.0, to=0.0, tr=0.0):
    job = MapReduceJobSpec(
        execution_time=ts, num_slaves=num_slaves,
        overhead_time=to, recovery_time=tr,
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


def flat_history(price, slots=600):
    return SpotPriceHistory(prices=np.full(slots, price))


class TestDeterministicRun:
    def test_constant_prices_exact_accounting(self):
        plan = make_plan(num_slaves=2, ts=1.0)
        result = run_plan_on_traces(plan, flat_history(0.02), flat_history(0.03))
        assert result.completed
        # Each slave does 0.5h of work; both start one slot after the
        # master launches, so completion is 0.5h + 1 slot.
        assert math.isclose(result.completion_time, 0.5 + TK)
        assert math.isclose(result.slave_cost, 2 * 0.5 * 0.03)
        # Master runs from slot 0 through the cancel slot (7 full slots).
        assert result.master_cost > 0
        assert result.master_restarts == 0
        assert result.slave_interruptions == 0
        assert math.isclose(
            result.total_cost, result.master_cost + result.slave_cost
        )

    def test_master_cost_fraction(self):
        plan = make_plan(num_slaves=2, ts=1.0)
        result = run_plan_on_traces(plan, flat_history(0.02), flat_history(0.03))
        assert math.isclose(
            result.master_cost_fraction, result.master_cost / result.slave_cost
        )

    def test_slaves_wait_for_master(self):
        # Master's market is expensive for the first 5 slots: the whole
        # cluster starts late.
        master_prices = np.concatenate([np.full(5, 0.9), np.full(600, 0.02)])
        plan = make_plan(num_slaves=2, ts=0.5)
        result = run_plan_on_traces(
            plan, SpotPriceHistory(prices=master_prices), flat_history(0.03)
        )
        assert result.completed
        # 5 idle slots + 1 master-launch slot + 0.25h of slave work.
        assert result.completion_time >= 5 * TK + 0.25

    def test_master_outbid_triggers_restart(self):
        master_prices = np.concatenate(
            [np.full(3, 0.02), np.full(2, 0.9), np.full(600, 0.02)]
        )
        plan = make_plan(num_slaves=2, ts=2.0)
        result = run_plan_on_traces(
            plan, SpotPriceHistory(prices=master_prices), flat_history(0.03)
        )
        assert result.completed
        assert result.master_restarts >= 1

    def test_slave_interruptions_counted(self):
        slave_prices = np.concatenate(
            [np.full(3, 0.03), np.full(2, 0.9), np.full(600, 0.03)]
        )
        plan = make_plan(num_slaves=2, ts=2.0, tr=seconds(30))
        result = run_plan_on_traces(
            plan, flat_history(0.02), SpotPriceHistory(prices=slave_prices)
        )
        assert result.completed
        assert result.slave_interruptions == 2  # both slaves knocked out

    def test_incomplete_when_trace_too_short(self):
        plan = make_plan(num_slaves=1, ts=10.0)
        result = run_plan_on_traces(
            plan, flat_history(0.02, slots=12), flat_history(0.03, slots=12)
        )
        assert not result.completed
        assert math.isnan(result.completion_time)

    def test_slot_length_mismatch_rejected(self):
        plan = make_plan()
        short = SpotPriceHistory(prices=np.full(10, 0.02), slot_length=0.25)
        with pytest.raises(PlanError):
            run_plan_on_traces(plan, short, flat_history(0.03))

    def test_start_slot_must_leave_room(self):
        plan = make_plan()
        with pytest.raises(PlanError):
            run_plan_on_traces(
                plan, flat_history(0.02, slots=10), flat_history(0.03, slots=10),
                start_slot=10,
            )


class TestOndemandBaseline:
    def test_analytic_accounting(self):
        job = MapReduceJobSpec(execution_time=8.0, num_slaves=4, overhead_time=0.4)
        baseline = ondemand_baseline(job, 0.28, 0.84)
        wall = 8.4 / 4
        assert math.isclose(baseline.completion_time, wall)
        assert math.isclose(baseline.master_cost, wall * 0.28)
        assert math.isclose(baseline.slave_cost, wall * 4 * 0.84)
        assert baseline.completed
        assert baseline.slave_interruptions == 0

    def test_invalid_prices(self):
        job = MapReduceJobSpec(execution_time=1.0, num_slaves=1)
        with pytest.raises(PlanError):
            ondemand_baseline(job, 0.0, 0.84)


class TestTerminationReason:
    def test_completed(self):
        result = run_plan_on_traces(
            make_plan(num_slaves=2, ts=1.0), flat_history(0.02), flat_history(0.03)
        )
        assert result.termination_reason is TerminationReason.COMPLETED
        assert str(result.termination_reason) == "completed"

    def test_budget_exhausted(self):
        result = run_plan_on_traces(
            make_plan(num_slaves=2, ts=1.0),
            flat_history(0.02),
            flat_history(0.03),
            max_slots=2,
        )
        assert not result.completed
        assert result.termination_reason is TerminationReason.BUDGET_EXHAUSTED

    def test_restarts_exhausted(self):
        # Master up for 2 slots, then priced out forever.
        master = SpotPriceHistory(
            prices=np.concatenate([np.full(2, 0.02), np.full(60, 1.0)])
        )
        result = run_plan_on_traces(
            make_plan(num_slaves=2, ts=5.0),
            master,
            flat_history(0.03, slots=62),
            max_master_restarts=0,
        )
        assert not result.completed
        assert result.termination_reason is TerminationReason.RESTARTS_EXHAUSTED
        assert result.master_restarts == 0

    def test_slaves_never_submitted_does_not_crash(self):
        # A master bid below every price used to crash the cost
        # accounting with an unknown-request lookup; now it reports
        # cleanly with zero cost.
        result = run_plan_on_traces(
            make_plan(master_bid=0.01, num_slaves=2, ts=1.0),
            flat_history(0.5),
            flat_history(0.03),
        )
        assert not result.completed
        assert (
            result.termination_reason is TerminationReason.SLAVES_NEVER_SUBMITTED
        )
        assert result.master_cost == 0.0
        assert result.slave_cost == 0.0
        assert result.slave_interruptions == 0


class TestFaultInjection:
    def test_slave_storm_interrupts_only_the_slaves(self):
        from repro.resilience.faults import (
            FaultInjector,
            PricePlateau,
        )

        plan = make_plan(num_slaves=2, ts=1.0, tr=seconds(30))
        clean = run_plan_on_traces(
            plan, flat_history(0.02), flat_history(0.03)
        )
        # A plateau above the slave bid early in the run pauses the
        # persistent slaves; the master's feed stays clean.
        storm = FaultInjector(
            [PricePlateau(level=1.0, duration_slots=4, start_slot=2)],
            seed=0,
        )
        stormy = run_plan_on_traces(
            plan, flat_history(0.02), storm.perturb_history(flat_history(0.03))
        )
        assert stormy.completed
        assert stormy.master_restarts == 0
        assert stormy.slave_interruptions > clean.slave_interruptions
        assert stormy.completion_time > clean.completion_time

    def test_master_faults_perturb_the_master_market(self):
        from repro.resilience.faults import FaultInjector, PricePlateau

        plan = make_plan(num_slaves=2, ts=1.0)
        outage = FaultInjector(
            [PricePlateau(level=1.0, duration_slots=3, start_slot=2)],
            seed=0,
        )
        result = run_plan_on_traces(
            plan, outage.perturb_history(flat_history(0.02)), flat_history(0.03)
        )
        # The one-time master is outbid mid-run and must be restarted.
        assert result.master_restarts > 0
        assert result.completed

    def test_fault_injected_runs_are_reproducible(self):
        from repro.resilience.faults import FaultInjector, PriceSpike

        plan = make_plan(num_slaves=2, ts=1.0, tr=seconds(30))
        master = FaultInjector([PriceSpike(rate=0.05)], seed=4)
        slave = FaultInjector([PriceSpike(rate=0.05)], seed=5)

        def run():
            return run_plan_on_traces(
                plan,
                master.perturb_history(flat_history(0.02)),
                slave.perturb_history(flat_history(0.03)),
            )

        a = run()
        b = run()
        assert a == b
