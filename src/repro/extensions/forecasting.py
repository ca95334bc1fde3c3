"""Forecast-based bidding (Section 5's alternative, implemented).

The paper notes: "Though time series forecasting may be used instead
[of the stationary distribution], ... users' job runtimes generally
exceed one time slot, requiring predictions far in advance.  Since the
spot prices' autocorrelation drops off rapidly with a longer lag time,
such predictions are likely to be difficult."

This module lets that argument be *tested* rather than assumed:

* :class:`EwmaForecaster` — exponentially weighted recent-window model:
  the predicted per-slot price distribution is the ECDF of a recent
  window, exponentially re-weighted toward the newest observations.
* :class:`Ar1Forecaster` — a fitted AR(1) on prices, unrolled ``h``
  slots ahead; the forecast distribution is the Gaussian predictive
  marginal mixed over the job's horizon, discretized onto the observed
  support.
* :func:`forecast_bid` — run any forecaster and feed its predicted
  distribution to the standard Prop. 4/5 optimizers.

The forecasting ablation (benchmarks) compares these against the
stationary-ECDF bids on both i.i.d. and sticky futures.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.distcache import cached_distribution
from ..core.distributions import EmpiricalPriceDistribution
from ..core.onetime import optimal_onetime_bid
from ..core.persistent import optimal_persistent_bid
from ..core.types import BidDecision, JobSpec, Strategy, normalize_strategy
from ..errors import DistributionError
from ..traces.history import SpotPriceHistory

__all__ = [
    "PriceForecaster",
    "EwmaForecaster",
    "Ar1Forecaster",
    "forecast_bid",
]


class PriceForecaster(abc.ABC):
    """Predicts the distribution of prices over a job's horizon."""

    @abc.abstractmethod
    def predict(
        self, history: SpotPriceHistory, horizon_slots: int
    ) -> EmpiricalPriceDistribution:
        """Forecast the per-slot price distribution over the next
        ``horizon_slots`` slots, as a weighted empirical distribution."""


@dataclass(frozen=True)
class EwmaForecaster(PriceForecaster):
    """Exponentially weighted window: recent slots dominate the forecast.

    ``half_life_hours`` controls how quickly old observations fade; the
    forecast resamples the trailing window with exponential weights,
    which keeps the full :class:`EmpiricalPriceDistribution` machinery
    (quantiles, partial expectations) available downstream.
    """

    half_life_hours: float = 24.0
    window_hours: float = 240.0
    #: Number of weighted resamples forming the forecast ECDF.
    resolution: int = 4096

    def __post_init__(self) -> None:
        if self.half_life_hours <= 0 or self.window_hours <= 0:
            raise DistributionError("half_life and window must be positive")

    def predict(
        self, history: SpotPriceHistory, horizon_slots: int
    ) -> EmpiricalPriceDistribution:
        window_slots = min(
            history.n_slots, int(round(self.window_hours / history.slot_length))
        )
        window = history.prices[-window_slots:]
        ages = (window_slots - 1 - np.arange(window_slots)) * history.slot_length
        weights = np.power(0.5, ages / self.half_life_hours)
        weights /= weights.sum()
        # Deterministic weighted "resampling": replicate each observation
        # proportionally to its weight (at least one copy for the newest).
        counts = np.maximum(0, np.round(weights * self.resolution)).astype(int)
        if counts.sum() == 0:
            counts[-1] = 1
        samples = np.repeat(window, counts)
        # Forecasts are deterministic in (history, parameters), so
        # repeated predictions share one fitted ECDF via the cache.
        return cached_distribution(samples)


@dataclass(frozen=True)
class Ar1Forecaster(PriceForecaster):
    """AR(1) price model unrolled over the job horizon.

    Fits ``π(t+1) = μ + ρ(π(t) − μ) + ε`` by least squares, forecasts the
    Gaussian predictive marginal for each slot in the horizon, mixes them
    uniformly, and discretizes onto a clipped support (prices cannot go
    below the observed floor).  With the rapidly decaying autocorrelation
    the paper describes, the long-horizon forecast collapses to the
    stationary distribution — which is exactly the paper's point.
    """

    #: Number of samples drawn from the predictive mixture.
    resolution: int = 4096
    seed: int = 0

    def predict(
        self, history: SpotPriceHistory, horizon_slots: int
    ) -> EmpiricalPriceDistribution:
        if horizon_slots < 1:
            raise DistributionError(
                f"horizon_slots must be >= 1, got {horizon_slots!r}"
            )
        prices = history.prices
        if prices.size < 10:
            raise DistributionError("need at least 10 observations to fit AR(1)")
        x, y = prices[:-1], prices[1:]
        mu = float(prices.mean())
        xc, yc = x - mu, y - mu
        denom = float(np.dot(xc, xc))
        rho = float(np.dot(xc, yc) / denom) if denom > 0 else 0.0
        rho = min(max(rho, -0.999), 0.999)
        resid = yc - rho * xc
        sigma = float(resid.std())
        last = float(prices[-1])

        rng = np.random.default_rng(self.seed)
        per_slot = max(1, self.resolution // horizon_slots)
        samples = []
        mean_h, var_h = last - mu, 0.0
        for _h in range(horizon_slots):
            mean_h *= rho
            var_h = rho * rho * var_h + sigma * sigma
            draw = mu + mean_h + math.sqrt(max(var_h, 0.0)) * rng.standard_normal(
                per_slot
            )
            samples.append(draw)
        mixed = np.concatenate(samples)
        floor = float(prices.min())
        mixed = np.clip(mixed, floor, None)
        # The seeded generator makes the sample path a pure function of
        # (history, resolution, seed) — safe to share via the cache.
        return cached_distribution(mixed)


def forecast_bid(
    forecaster: PriceForecaster,
    history: SpotPriceHistory,
    job: JobSpec,
    *,
    strategy: Strategy = Strategy.PERSISTENT,
    ondemand_price: Optional[float] = None,
) -> BidDecision:
    """Bid using a forecaster's predicted distribution.

    The horizon is the job's expected slot count (``t_s/t_k``, rounded
    up) — the look-ahead the paper says the user actually needs.
    """
    strategy = normalize_strategy(strategy)
    horizon = max(1, math.ceil(job.execution_time / job.slot_length))
    dist = forecaster.predict(history, horizon)
    if strategy is Strategy.ONE_TIME:
        return optimal_onetime_bid(dist, job, ondemand_price=ondemand_price)
    if strategy is Strategy.PERSISTENT:
        return optimal_persistent_bid(dist, job, ondemand_price=ondemand_price)
    raise ValueError(f"unsupported strategy {strategy!r} for forecast bidding")
