"""Spot Blocks: fixed-duration pricing and the four-way comparison."""

import math

import pytest

from repro.constants import seconds
from repro.core.types import JobSpec
from repro.errors import PlanError
from repro.extensions.spot_blocks import (
    block_price,
    compare_purchasing_options,
)


class TestBlockPrice:
    def test_between_spot_mean_and_ondemand(self, r3_model):
        for duration in (1.0, 3.0, 6.0):
            price = block_price(r3_model, 0.35, duration)
            assert r3_model.mean() < price < 0.35

    def test_longer_blocks_cost_more(self, r3_model):
        prices = [block_price(r3_model, 0.35, d) for d in (1, 2, 4, 6)]
        assert prices == sorted(prices)

    def test_capped_at_ondemand(self, r3_model):
        price = block_price(
            r3_model, 0.35, 6.0, base_premium=1.0, premium_per_hour=1.0
        )
        assert price == 0.35

    def test_validation(self, r3_model):
        with pytest.raises(PlanError):
            block_price(r3_model, 0.35, 0.0)
        with pytest.raises(PlanError):
            block_price(r3_model, 0.0, 1.0)
        with pytest.raises(PlanError, match="duration"):
            block_price(r3_model, 0.35, math.nan)
        with pytest.raises(PlanError, match="ondemand_price"):
            block_price(r3_model, math.nan, 1.0)


class TestComparison:
    def test_all_four_options_present(self, r3_model, hour_job):
        options = compare_purchasing_options(r3_model, hour_job, 0.35)
        names = {o.name for o in options}
        assert names == {"on-demand", "one-time", "persistent", "spot-block"}

    def test_sorted_by_cost_with_ondemand_last(self, r3_model, hour_job):
        options = compare_purchasing_options(r3_model, hour_job, 0.35)
        costs_ = [o.expected_cost for o in options]
        assert costs_ == sorted(costs_)
        assert options[-1].name == "on-demand"

    def test_cost_reliability_ordering(self, r3_model, hour_job):
        by_name = {
            o.name: o
            for o in compare_purchasing_options(r3_model, hour_job, 0.35)
        }
        # Guaranteed options complete surely; blocks cost more than open
        # spot (the insurance premium) but less than on-demand.
        assert by_name["spot-block"].completion_probability == 1.0
        assert (
            by_name["persistent"].expected_cost
            < by_name["spot-block"].expected_cost
            < by_name["on-demand"].expected_cost
        )
        assert 0.0 < by_name["one-time"].completion_probability <= 1.0

    def test_long_job_chains_blocks(self, r3_model):
        job = JobSpec(execution_time=14.0, recovery_time=seconds(30))
        by_name = {
            o.name: o
            for o in compare_purchasing_options(r3_model, job, 0.35)
        }
        block = by_name["spot-block"]
        assert block.completion_probability == 1.0
        # Chained price is a blend of 6 h-block prices: still below π̄.
        assert r3_model.mean() < block.price < 0.35
        assert math.isclose(
            block.expected_cost, block.price * 14.0, rel_tol=1e-9
        )

    def test_completion_probability_decreases_with_job_length(self, r3_model):
        short = compare_purchasing_options(
            r3_model, JobSpec(execution_time=0.5), 0.35
        )
        long = compare_purchasing_options(
            r3_model, JobSpec(execution_time=4.0), 0.35
        )
        p_short = {o.name: o for o in short}["one-time"].completion_probability
        p_long = {o.name: o for o in long}["one-time"].completion_probability
        assert p_long < p_short

    def test_validation(self, r3_model, hour_job):
        for ondemand in (0.0, math.nan):
            with pytest.raises(PlanError, match="ondemand_price"):
                compare_purchasing_options(r3_model, hour_job, ondemand)
        # The 1 h block covers the job, so -2 h is never priced; it is
        # rejected all the same, and so is a NaN duration.
        for durations in ([1.0, -2.0], [1.0, math.nan]):
            with pytest.raises(PlanError, match="duration"):
                compare_purchasing_options(
                    r3_model, hour_job, 0.35, block_durations=durations
                )

    @pytest.mark.parametrize(
        "hours, expected_cost, price",
        [
            # one 1 h block
            (1.0, "0x1.c6eb5d673f368p-5", "0x1.c6eb5d673f368p-5"),
            # exactly one 6 h block
            (6.0, "0x1.0bdd3911018b0p-1", "0x1.6526f6c157640p-4"),
            # two chained 6 h blocks and a 1 h block for the remainder
            (13.0, "0x1.1a1493fc3b84bp+0", "0x1.5b2d04e7abb70p-4"),
            # two chained 6 h blocks and a 2 h block for the remainder
            (14.0, "0x1.2b89f71b007d0p+0", "0x1.5654881edbfc9p-4"),
        ],
        ids=["1h", "6h", "13h", "14h"],
    )
    def test_block_pricing_is_pinned(self, r3_model, hours, expected_cost, price):
        # Bit patterns (float.hex) of the spot-block option: the
        # covering/chaining rule has no second definition to compare it
        # against, so its values are pinned.
        job = JobSpec(execution_time=hours, recovery_time=seconds(30))
        block = {
            o.name: o for o in compare_purchasing_options(r3_model, job, 0.35)
        }["spot-block"]
        assert block.expected_cost.hex() == expected_cost
        assert block.price.hex() == price
