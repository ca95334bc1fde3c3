"""SpotPriceHistory: slicing, statistics, and conversions."""

import math

import numpy as np
import pytest

from repro.constants import DEFAULT_SLOT_HOURS
from repro.errors import DistributionError, TraceError
from repro.traces.history import SpotPriceHistory


@pytest.fixture
def history():
    prices = np.linspace(0.03, 0.05, 288)  # one day, strictly increasing
    return SpotPriceHistory(prices=prices, instance_type="r3.xlarge")


class TestBasics:
    def test_shape_and_duration(self, history):
        assert history.n_slots == 288
        assert len(history) == 288
        assert math.isclose(history.duration_hours, 24.0)

    def test_timestamps(self, history):
        ts = history.timestamps()
        assert ts[0] == 0.0
        assert math.isclose(ts[-1], 24.0 - DEFAULT_SLOT_HOURS)

    def test_price_at(self, history):
        assert history.price_at(0.0) == history.prices[0]
        assert history.price_at(12.0) == history.prices[144]
        with pytest.raises(TraceError):
            history.price_at(24.0)
        with pytest.raises(TraceError):
            history.price_at(-0.1)

    @pytest.mark.parametrize(
        "prices", [[], [-0.1], [math.nan], [[0.1, 0.2]]]
    )
    def test_invalid_prices(self, prices):
        with pytest.raises(TraceError):
            SpotPriceHistory(prices=np.asarray(prices))

    def test_invalid_slot_length(self):
        with pytest.raises(TraceError):
            SpotPriceHistory(prices=np.asarray([0.1]), slot_length=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("slot_length", math.inf),
            ("slot_length", math.nan),
            ("start_hour", math.nan),
            ("start_hour", math.inf),
            ("start_hour", -math.inf),
            ("start_hour", -1.0),
        ],
    )
    def test_bad_slot_length_or_start_hour_rejected(self, field, value):
        with pytest.raises(TraceError, match=field):
            SpotPriceHistory(prices=np.asarray([0.03, 0.04]), **{field: value})


class TestSlicing:
    def test_slice_slots_shifts_start(self, history):
        sub = history.slice_slots(12, 24)
        assert sub.n_slots == 12
        assert math.isclose(sub.start_hour, 1.0)
        np.testing.assert_array_equal(sub.prices, history.prices[12:24])

    def test_slice_bounds_checked(self, history):
        with pytest.raises(TraceError):
            history.slice_slots(-1, 10)
        with pytest.raises(TraceError):
            history.slice_slots(10, 10)
        with pytest.raises(TraceError):
            history.slice_slots(0, 1000)

    def test_last_hours(self, history):
        tail = history.last_hours(2.0)
        assert tail.n_slots == 24
        np.testing.assert_array_equal(tail.prices, history.prices[-24:])
        with pytest.raises(TraceError):
            history.last_hours(25.0)
        with pytest.raises(TraceError):
            history.last_hours(0.001)

    def test_split_at_hour(self, history):
        past, future = history.split_at_hour(6.0)
        assert past.n_slots == 72
        assert future.n_slots == 216
        assert math.isclose(future.start_hour, 6.0)
        with pytest.raises(TraceError):
            history.split_at_hour(0.0)


class TestStatistics:
    def test_percentile_and_mean(self, history):
        # A trace's percentile is its ECDF's, the observed price the
        # §7.1 heuristic bids.
        dist = history.to_distribution()
        assert dist.percentile(0.0) == 0.03
        assert dist.percentile(100.0) == 0.05
        assert math.isclose(history.mean(), history.prices.mean())
        with pytest.raises(DistributionError):
            dist.percentile(101)

    def test_to_distribution(self, history):
        dist = history.to_distribution()
        assert dist.n_observations == 288
        assert dist.lower == history.prices.min()

    def test_to_distribution_with_upper(self, history):
        dist = history.to_distribution(upper=0.35)
        assert dist.upper == 0.35

    def test_day_night_split_counts(self, history):
        day, night = history.day_night_split(day_start=8.0, day_end=20.0)
        assert day.size == 144  # 12 of 24 hours
        assert night.size == 144
        # Daytime slots on this increasing ramp hold the middle prices.
        assert day.min() > night.min()

    def test_day_night_validation(self, history):
        with pytest.raises(TraceError):
            history.day_night_split(day_start=20.0, day_end=8.0)

    def test_multiday_split_uses_hour_of_day(self):
        prices = np.tile(np.linspace(0.03, 0.05, 288), 3)  # three days
        history = SpotPriceHistory(prices=prices)
        day, night = history.day_night_split()
        assert day.size == 3 * 144
        assert night.size == 3 * 144
