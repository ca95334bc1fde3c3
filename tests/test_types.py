"""Core value types: validation and derived quantities."""

import math
import warnings

import pytest

from repro.constants import DEFAULT_SLOT_HOURS, seconds
from repro.core.types import (
    BidDecision,
    BidKind,
    CompletionStats,
    CostBreakdown,
    JobSpec,
    MapReduceJobSpec,
    MapReducePlan,
    ParallelJobSpec,
    Strategy,
    normalize_strategy,
)
from repro.errors import PlanError


class TestJobSpec:
    def test_defaults(self):
        job = JobSpec(execution_time=2.0)
        assert job.recovery_time == 0.0
        assert job.slot_length == DEFAULT_SLOT_HOURS

    def test_slots_required(self):
        job = JobSpec(execution_time=1.0)
        assert math.isclose(job.slots_required, 12.0)

    def test_recovery_slots(self):
        job = JobSpec(execution_time=1.0, recovery_time=seconds(30))
        assert math.isclose(job.recovery_slots, (30 / 3600) / DEFAULT_SLOT_HOURS)

    def test_with_recovery_returns_modified_copy(self):
        job = JobSpec(execution_time=1.0)
        other = job.with_recovery(0.01)
        assert other.recovery_time == 0.01
        assert job.recovery_time == 0.0

    @pytest.mark.parametrize("ts", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_execution_time(self, ts):
        with pytest.raises(ValueError):
            JobSpec(execution_time=ts)

    @pytest.mark.parametrize("tr", [-0.1, math.inf, math.nan])
    def test_invalid_recovery_time(self, tr):
        with pytest.raises(ValueError):
            JobSpec(execution_time=1.0, recovery_time=tr)

    @pytest.mark.parametrize("tk", [0.0, -1.0, math.nan])
    def test_invalid_slot_length(self, tk):
        with pytest.raises(ValueError):
            JobSpec(execution_time=1.0, slot_length=tk)


class TestParallelJobSpec:
    def test_effective_work_formula(self):
        job = ParallelJobSpec(
            execution_time=4.0, num_instances=4,
            overhead_time=0.1, recovery_time=0.05,
        )
        assert math.isclose(job.effective_work, 4.0 + 0.1 - 4 * 0.05)

    def test_per_instance_work_splits_overhead(self):
        job = ParallelJobSpec(execution_time=4.0, num_instances=8, overhead_time=0.4)
        assert math.isclose(job.per_instance_work, 4.4 / 8)

    def test_as_single_instance_drops_split(self):
        job = ParallelJobSpec(
            execution_time=4.0, num_instances=4,
            overhead_time=0.1, recovery_time=0.05,
        )
        single = job.as_single_instance()
        assert isinstance(single, JobSpec)
        assert single.execution_time == 4.0
        assert single.recovery_time == 0.05

    @pytest.mark.parametrize("m", [0, -1, 1.5])
    def test_invalid_instance_count(self, m):
        with pytest.raises(ValueError):
            ParallelJobSpec(execution_time=1.0, num_instances=m)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            ParallelJobSpec(execution_time=1.0, num_instances=2, overhead_time=-0.1)


class TestMapReduceJobSpec:
    def test_slaves_spec_mirrors_fields(self):
        job = MapReduceJobSpec(
            execution_time=8.0, num_slaves=4,
            overhead_time=0.2, recovery_time=0.01,
        )
        slaves = job.slaves_spec
        assert slaves.num_instances == 4
        assert slaves.execution_time == 8.0
        assert slaves.overhead_time == 0.2

    def test_with_slaves(self):
        job = MapReduceJobSpec(execution_time=8.0, num_slaves=4)
        assert job.with_slaves(6).num_slaves == 6
        assert job.num_slaves == 4

    def test_invalid_slave_count(self):
        with pytest.raises(ValueError):
            MapReduceJobSpec(execution_time=1.0, num_slaves=0)


class TestBidDecision:
    def test_valid_decision(self):
        d = BidDecision(price=0.03, kind=BidKind.ONE_TIME, expected_cost=0.05)
        assert d.expected_completion_time is None

    @pytest.mark.parametrize("price", [-0.01, math.inf, math.nan])
    def test_invalid_price(self, price):
        with pytest.raises(ValueError):
            BidDecision(price=price, kind=BidKind.ONE_TIME, expected_cost=0.05)

    def test_invalid_cost(self):
        with pytest.raises(ValueError):
            BidDecision(price=0.03, kind=BidKind.ONE_TIME, expected_cost=math.inf)


class TestMapReducePlan:
    def _bid(self, kind):
        return BidDecision(price=0.05, kind=kind, expected_cost=0.1)

    def _job(self):
        return MapReduceJobSpec(execution_time=4.0, num_slaves=4)

    def test_total_expected_cost_sums_components(self):
        plan = MapReducePlan(
            job=self._job(),
            master_bid=self._bid(BidKind.ONE_TIME),
            slave_bid=self._bid(BidKind.PERSISTENT),
            required_master_time=1.0,
            min_slaves=3,
        )
        assert math.isclose(plan.total_expected_cost, 0.2)

    def test_master_must_be_one_time(self):
        with pytest.raises(PlanError):
            MapReducePlan(
                job=self._job(),
                master_bid=self._bid(BidKind.PERSISTENT),
                slave_bid=self._bid(BidKind.PERSISTENT),
                required_master_time=1.0,
                min_slaves=3,
            )

    def test_slaves_must_be_persistent(self):
        with pytest.raises(PlanError):
            MapReducePlan(
                job=self._job(),
                master_bid=self._bid(BidKind.ONE_TIME),
                slave_bid=self._bid(BidKind.ONE_TIME),
                required_master_time=1.0,
                min_slaves=3,
            )


class TestCostBreakdown:
    def test_total_and_addition(self):
        a = CostBreakdown(running_cost=1.0, recovery_cost=0.5)
        b = CostBreakdown(overhead_cost=0.25)
        total = a + b
        assert math.isclose(total.total, 1.75)
        assert math.isclose(a.total, 1.5)


class TestCompletionStats:
    def test_finalize_computes_charged_price(self):
        stats = CompletionStats(running_time=2.0, cost=0.08).finalize()
        assert math.isclose(stats.charged_price_per_hour, 0.04)

    def test_finalize_handles_zero_running_time(self):
        stats = CompletionStats().finalize()
        assert stats.charged_price_per_hour == 0.0


class TestNormalizeStrategy:
    """Enum members pass; anything else, strings included, raises."""

    def test_enum_members_pass_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for member in Strategy:
                assert normalize_strategy(member) is member

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("one-time", Strategy.ONE_TIME),
            ("onetime", Strategy.ONE_TIME),
            ("one_time", Strategy.ONE_TIME),
            ("persistent", Strategy.PERSISTENT),
            ("percentile", Strategy.PERCENTILE),
            ("  Persistent ", Strategy.PERSISTENT),
            ("ONE-TIME", Strategy.ONE_TIME),
        ],
    )
    def test_legacy_strings_map_and_warn(self, alias, expected):
        # The former string aliases no longer map: each raises without a
        # warning, and only the member it used to name is accepted.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unknown strategy"):
                normalize_strategy(alias)
            assert normalize_strategy(expected) is expected

    def test_unknown_strategy_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unknown strategy"):
                normalize_strategy("yolo")
            with pytest.raises(ValueError):
                normalize_strategy(object())
