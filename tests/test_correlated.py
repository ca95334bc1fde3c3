"""Temporal-correlation analysis (Section 8)."""

import math

import numpy as np
import pytest

from repro.core import costs
from repro.errors import DistributionError
from repro.extensions.correlated import (
    autocorrelation,
    expected_interruptions_markov,
    interruption_reduction_factor,
    lag1_price_persistence,
)


class TestAutocorrelation:
    def test_white_noise_near_zero(self, rng):
        series = rng.standard_normal(20000)
        acf = autocorrelation(series, max_lag=3)
        assert acf[0] == 1.0
        assert abs(acf[1]) < 0.03

    def test_ar1_recovers_rho(self, rng):
        rho = 0.8
        n = 30000
        z = np.empty(n)
        z[0] = 0.0
        eps = rng.standard_normal(n)
        for i in range(1, n):
            z[i] = rho * z[i - 1] + math.sqrt(1 - rho * rho) * eps[i]
        acf = autocorrelation(z, max_lag=2)
        assert abs(acf[1] - rho) < 0.03
        assert abs(acf[2] - rho * rho) < 0.04

    def test_constant_series_fully_persistent(self):
        acf = autocorrelation(np.full(100, 0.03), max_lag=5)
        assert np.all(acf == 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(DistributionError):
            autocorrelation(np.asarray([1.0]))
        with pytest.raises(DistributionError):
            autocorrelation(np.asarray([1.0, 2.0, 3.0]), max_lag=3)


class TestLag1Persistence:
    def test_alternating_series(self):
        prices = np.asarray([0.03, 0.09] * 10)
        # Accepted slots (0.03) are always followed by rejected ones.
        assert lag1_price_persistence(prices, bid=0.05) == 0.0

    def test_blocked_series(self):
        prices = np.asarray([0.03] * 10 + [0.09] * 10)
        # Only one accepted->rejected transition out of 10 accepted slots
        # with a successor... 9 of 10 stay accepted.
        assert math.isclose(lag1_price_persistence(prices, bid=0.05), 9 / 10)

    def test_never_accepted(self):
        prices = np.asarray([0.09] * 10)
        assert lag1_price_persistence(prices, bid=0.05) == 0.0

    def test_always_accepted(self):
        prices = np.asarray([0.03, 0.04, 0.05] * 4)
        assert lag1_price_persistence(prices, bid=0.05) == 1.0

    def test_single_price_rejected(self):
        with pytest.raises(DistributionError, match="at least two"):
            lag1_price_persistence(np.asarray([0.03]), bid=0.05)


class TestMarkovInterruptions:
    def test_rho_zero_recovers_eq12(self, empirical_dist, hour_job):
        p = 0.04
        T = 3.0
        base = costs.expected_interruptions(
            empirical_dist, p, T, hour_job.slot_length
        )
        markov = expected_interruptions_markov(
            empirical_dist, p, hour_job, T, rho=0.0
        )
        assert math.isclose(markov, base)

    def test_correlation_scales_linearly(self, empirical_dist, hour_job):
        p, T = 0.04, 3.0
        base = expected_interruptions_markov(
            empirical_dist, p, hour_job, T, rho=0.0
        )
        half = expected_interruptions_markov(
            empirical_dist, p, hour_job, T, rho=0.5
        )
        assert math.isclose(half, base * 0.5)

    def test_reduction_factor(self):
        assert interruption_reduction_factor(0.0) == 1.0
        assert math.isclose(interruption_reduction_factor(0.9), 0.1)
        with pytest.raises(DistributionError):
            interruption_reduction_factor(1.0)

    def test_invalid_rho(self, empirical_dist, hour_job):
        with pytest.raises(DistributionError):
            expected_interruptions_markov(
                empirical_dist, 0.04, hour_job, 1.0, rho=1.0
            )
