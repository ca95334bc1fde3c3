"""Temporal price correlation (Section 8, "Temporal correlations").

The paper assumes i.i.d. spot prices and predicts that positive temporal
correlation "would likely reduce the degree to which the spot price
changes in consecutive time slots.  Thus, the user's job would be
interrupted less often, leading to lower job running times and costs."

This module provides the tooling to test that prediction:

* :func:`autocorrelation` — sample ACF of a price trace.
* :func:`expected_interruptions_markov` — expected interruption count for
  a persistent bid under a two-state Markov availability model with
  slot-to-slot persistence ``rho`` (``rho = 0`` recovers eq. 12).
* :func:`interruption_reduction_factor` — the closed-form ratio of
  correlated to i.i.d. interruption rates, ``1 − rho``.

The ``generate_correlated_history`` / ``generate_renewal_history``
generators in :mod:`repro.traces` produce matching traces; the ablation
benchmark measures interruptions on both and compares against these
predictions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..core import costs
from ..core.distributions import PriceDistribution
from ..core.types import JobSpec
from ..errors import DistributionError
from .kernels import persistence_grid_kernel

__all__ = [
    "autocorrelation",
    "lag1_price_persistence",
    "lag1_persistence_grid",
    "expected_interruptions_markov",
    "interruption_reduction_factor",
]


def autocorrelation(prices: np.ndarray, max_lag: int = 24) -> np.ndarray:
    """Sample autocorrelation of a price series up to ``max_lag`` slots.

    Returns an array ``acf`` with ``acf[0] == 1``.  A constant series has
    undefined ACF; this returns all ones there (perfectly persistent),
    which is the behaviour the interruption analysis wants.
    """
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DistributionError("need a 1-D series with at least two prices")
    if max_lag < 1 or max_lag >= arr.size:
        raise DistributionError(
            f"max_lag must be in [1, {arr.size - 1}], got {max_lag!r}"
        )
    centered = arr - arr.mean()
    denom = float(np.dot(centered, centered))
    acf = np.empty(max_lag + 1)
    acf[0] = 1.0
    if denom == 0.0:
        acf[1:] = 1.0
        return acf
    for lag in range(1, max_lag + 1):
        acf[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    return acf


def lag1_price_persistence(prices: np.ndarray, bid: float) -> float:
    """Empirical P(accepted at t+1 | accepted at t) for a bid level.

    This is the availability-process persistence the Markov interruption
    model consumes — measured on the *indicator* of acceptance rather
    than the price itself, which is what interruptions actually depend
    on.
    """
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DistributionError("need a 1-D series with at least two prices")
    accepted = arr <= bid
    prior = accepted[:-1]
    if not prior.any():
        return 0.0
    return float(np.mean(accepted[1:][prior]))


def lag1_persistence_grid(
    traces: Union[np.ndarray, Sequence[np.ndarray]],
    bids: Sequence[float],
    *,
    n_valid: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """:func:`lag1_price_persistence` batched over a trace × bid grid.

    ``traces`` is either a sequence of 1-D price arrays (stacked into an
    ``inf``-padded matrix, so ragged lengths are fine — padding is never
    accepted by any bid) or an already-padded 2-D matrix with per-row
    valid counts in ``n_valid``.  Returns the ``(n_traces, n_bids)``
    persistence matrix the Markov interruption model consumes, evaluated
    through the batched
    :func:`~repro.extensions.kernels.persistence_grid_kernel`.
    """
    if isinstance(traces, np.ndarray) and traces.ndim == 2:
        matrix = np.asarray(traces, dtype=float)
        counts = None if n_valid is None else np.asarray(n_valid, dtype=np.int64)
    else:
        rows = [np.asarray(t, dtype=float) for t in traces]
        if not rows:
            raise DistributionError("need at least one trace")
        for row in rows:
            if row.ndim != 1 or row.size < 2:
                raise DistributionError(
                    "need a 1-D series with at least two prices"
                )
        width = max(row.size for row in rows)
        matrix = np.full((len(rows), width), np.inf)
        counts = np.empty(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            matrix[i, : row.size] = row
            counts[i] = row.size
    return persistence_grid_kernel(
        matrix, np.asarray(bids, dtype=float), counts
    )["rho"]


def expected_interruptions_markov(
    dist: PriceDistribution,
    price: float,
    job: JobSpec,
    completion_time: float,
    *,
    rho: float = 0.0,
) -> float:
    """Expected interruptions under Markov-correlated availability.

    The acceptance indicator follows a two-state Markov chain with
    stationary probability ``F(p)`` and persistence parameter ``rho``
    (the lag-1 autocorrelation of the indicator): the run→idle transition
    probability becomes ``(1 − rho)·(1 − F(p))`` instead of the i.i.d.
    ``1 − F(p)``, so over ``T/t_k`` slots

        E[interruptions] = (T/t_k)·F(p)·(1 − F(p))·(1 − rho).

    ``rho = 0`` reduces exactly to eq. 12.
    """
    if not 0.0 <= rho < 1.0:
        raise DistributionError(f"rho must be in [0, 1), got {rho!r}")
    base = costs.expected_interruptions(dist, price, completion_time, job.slot_length)
    return base * (1.0 - rho)


def interruption_reduction_factor(rho: float) -> float:
    """The paper's Section 8 prediction, made quantitative: correlation
    ``rho`` cuts the interruption rate to ``(1 − rho)×`` the i.i.d. rate."""
    if not 0.0 <= rho < 1.0:
        raise DistributionError(f"rho must be in [0, 1), got {rho!r}")
    return 1.0 - rho
