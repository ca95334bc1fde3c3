"""Forecast-based bidding (Section 5's alternative path)."""

import math

import numpy as np
import pytest

from repro.constants import seconds
from repro.core.types import BidKind, JobSpec
from repro.errors import DistributionError
from repro.extensions.forecasting import (
    Ar1Forecaster,
    EwmaForecaster,
    forecast_bid,
)
from repro.traces.history import SpotPriceHistory


@pytest.fixture
def flat_history():
    return SpotPriceHistory(prices=np.full(2000, 0.04))


@pytest.fixture
def trending_history():
    # A slow upward ramp: recent prices are higher than old ones.
    return SpotPriceHistory(prices=np.linspace(0.03, 0.06, 2000))


class TestEwma:
    def test_flat_history_predicts_flat(self, flat_history):
        dist = EwmaForecaster().predict(flat_history, horizon_slots=12)
        assert dist.lower == 0.04
        assert dist.upper == 0.04

    def test_weights_recent_prices(self, trending_history):
        short = EwmaForecaster(half_life_hours=2.0)
        long = EwmaForecaster(half_life_hours=1000.0)
        recent_mean = short.predict(trending_history, 12).mean()
        flat_mean = long.predict(trending_history, 12).mean()
        # Short half-life concentrates on the (higher) recent prices.
        assert recent_mean > flat_mean
        assert recent_mean > trending_history.mean()

    def test_window_limits_lookback(self, trending_history):
        dist = EwmaForecaster(
            half_life_hours=1e6, window_hours=10.0
        ).predict(trending_history, 12)
        # Only the last 120 slots are visible, all near the ramp top.
        assert dist.lower >= trending_history.prices[-121]

    def test_invalid_params(self):
        with pytest.raises(DistributionError):
            EwmaForecaster(half_life_hours=0.0)


class TestAr1:
    def test_flat_history_predicts_flat(self, flat_history):
        dist = Ar1Forecaster().predict(flat_history, horizon_slots=12)
        assert math.isclose(dist.mean(), 0.04, rel_tol=1e-6)

    def test_long_horizon_approaches_stationary_mean(self, r3_history):
        fc = Ar1Forecaster(seed=1)
        short = fc.predict(r3_history, horizon_slots=1)
        long = fc.predict(r3_history, horizon_slots=500)
        stationary_mean = float(r3_history.prices.mean())
        # The long-horizon forecast mean collapses toward stationarity —
        # the paper's "predictions are likely to be difficult" point.
        assert abs(long.mean() - stationary_mean) < abs(
            short.mean() - stationary_mean
        ) + 5e-4

    def test_forecast_respects_price_floor(self, r3_history):
        dist = Ar1Forecaster(seed=2).predict(r3_history, horizon_slots=24)
        assert dist.lower >= float(r3_history.prices.min()) - 1e-12

    def test_requires_history_and_horizon(self, flat_history):
        with pytest.raises(DistributionError):
            Ar1Forecaster().predict(flat_history, horizon_slots=0)
        tiny = SpotPriceHistory(prices=np.full(5, 0.04))
        with pytest.raises(DistributionError):
            Ar1Forecaster().predict(tiny, horizon_slots=4)


class TestForecastBid:
    def test_persistent_bid_from_forecast(self, r3_history):
        job = JobSpec(1.0, seconds(30))
        decision = forecast_bid(EwmaForecaster(), r3_history, job)
        assert decision.kind is BidKind.PERSISTENT
        assert math.isfinite(decision.expected_cost)

    def test_onetime_bid_from_forecast(self, r3_history):
        from repro.core.types import Strategy

        job = JobSpec(1.0)
        decision = forecast_bid(
            EwmaForecaster(), r3_history, job, strategy=Strategy.ONE_TIME
        )
        assert decision.kind is BidKind.ONE_TIME

    def test_legacy_string_strategy_still_works(self, r3_history):
        # The string form is rejected; test_onetime_bid_from_forecast
        # covers the Strategy.ONE_TIME member that replaces it.
        job = JobSpec(1.0)
        with pytest.raises(ValueError, match="unknown strategy"):
            forecast_bid(EwmaForecaster(), r3_history, job, strategy="one-time")

    def test_unknown_strategy(self, r3_history, hour_job):
        with pytest.raises(ValueError):
            forecast_bid(EwmaForecaster(), r3_history, hour_job, strategy="x")

    def test_stationary_market_forecasts_agree_with_ecdf(self, r3_history):
        # On an i.i.d. history the EWMA forecast is a reweighted ECDF, so
        # its persistent bid lands near the stationary one.
        from repro.core.persistent import optimal_persistent_bid

        job = JobSpec(1.0, seconds(30))
        ewma = forecast_bid(
            EwmaForecaster(half_life_hours=1e5), r3_history, job
        )
        stationary = optimal_persistent_bid(r3_history.to_distribution(), job)
        assert abs(ewma.price - stationary.price) / stationary.price < 0.05
