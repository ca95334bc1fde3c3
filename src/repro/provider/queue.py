"""Queue dynamics of persistent bids (Section 4.2, eq. 4).

Bids that lose the auction — and running instances that are outbid — stay
in the system and compete again next slot, so the demand seen by the
provider evolves as

    L(t+1) = L(t) − θ·N(t) + Λ(t)                         (eq. 4)

where ``θ`` is the fraction of running instances that finish per slot and
``Λ(t)`` the new arrivals.  :class:`ProviderSimulation` runs this loop
closed against the eq. 3 price rule, producing the data used to validate
Props. 1–3 (queue stability, equilibrium, induced price distribution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import DistributionError
from .arrivals import ArrivalProcess
from .pricing import (
    _accepted_bids,
    _check_beta,
    _check_demand,
    _optimal_spot_price,
    validate_price_band,
)

__all__ = [
    "queue_step",
    "ProviderTrace",
    "ProviderSimulation",
    "ElasticProviderSimulation",
]


def queue_step(
    demand: float,
    price: float,
    arrivals_value: float,
    theta: float,
    pi_bar: float,
    pi_min: float,
) -> float:
    """One application of eq. 4: ``L(t+1) = L(t) − θN(t) + Λ(t)``."""
    _check_step(theta, arrivals_value)
    validate_price_band(pi_bar, pi_min)
    _check_demand(demand)
    return _next_demand(
        demand, _accepted_bids(demand, price, pi_bar, pi_min), arrivals_value, theta
    )


def _check_step(theta: float, arrivals_value: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise DistributionError(f"theta must be in [0, 1], got {theta!r}")
    if arrivals_value < 0:
        raise ValueError(f"arrivals must be non-negative, got {arrivals_value!r}")


def _next_demand(
    demand: float, accepted: float, arrivals_value: float, theta: float
) -> float:
    nxt = demand - theta * accepted + arrivals_value
    # 0 <= θ <= 1 and π within the band guarantee positivity analytically;
    # clamp only against floating-point dust.
    return max(0.0, nxt)


@dataclass
class ProviderTrace:
    """Time series produced by a closed-loop provider simulation."""

    demand: np.ndarray
    price: np.ndarray
    accepted: np.ndarray
    arrivals: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.price.size

    def mean_queue(self) -> float:
        """Time-averaged demand — bounded under Prop. 1."""
        return float(self.demand.mean())

    def drop_warmup(self, slots: int) -> "ProviderTrace":
        """Discard the first ``slots`` entries (transient before equilibrium)."""
        if slots < 0:
            raise ValueError(f"slots must be non-negative, got {slots!r}")
        return ProviderTrace(
            demand=self.demand[slots:],
            price=self.price[slots:],
            accepted=self.accepted[slots:],
            arrivals=self.arrivals[slots:],
        )


@dataclass
class ProviderSimulation:
    """Closed-loop Section 4 provider: eq. 3 pricing + eq. 4 queueing.

    Parameters
    ----------
    arrivals:
        The i.i.d. arrival process ``Λ(t)``.
    beta, theta:
        Provider parameters (utilization weight; per-slot finish fraction).
    pi_bar, pi_min:
        The admissible spot-price band.
    initial_demand:
        ``L(0)``; defaults to the arrival mean divided by θ, which is the
        equilibrium workload level.
    """

    arrivals: ArrivalProcess
    beta: float
    theta: float
    pi_bar: float
    pi_min: float
    initial_demand: Optional[float] = None
    _state: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        validate_price_band(self.pi_bar, self.pi_min)
        if self.beta <= 0:
            raise DistributionError(f"beta must be positive, got {self.beta!r}")
        if not 0.0 < self.theta <= 1.0:
            raise DistributionError(f"theta must be in (0, 1], got {self.theta!r}")
        if self.initial_demand is None:
            mean = self.arrivals.mean()
            self.initial_demand = mean / self.theta if np.isfinite(mean) else 1.0
        if self.initial_demand < 0:
            raise ValueError(
                f"initial_demand must be non-negative, got {self.initial_demand!r}"
            )
        self._state = float(self.initial_demand)

    @property
    def demand(self) -> float:
        """Current queue length ``L(t)``."""
        return self._state

    def reset(self, demand: Optional[float] = None) -> None:
        """Reset the queue to ``demand`` (default: the initial demand)."""
        self._state = float(self.initial_demand if demand is None else demand)
        if self._state < 0:
            raise ValueError(f"demand must be non-negative, got {demand!r}")

    def step(self, arrivals_value: float) -> tuple:
        """Advance one slot; returns ``(price, accepted, new_demand)``.

        Eq. 3 prices the slot and eq. 4 moves the queue.  The inputs are
        checked once, in the order the public formulas check them (band,
        β, demand, θ, arrivals), so parameters changed after
        construction are still caught at the next step.
        """
        demand, beta, pi_bar, pi_min = self._state, self.beta, self.pi_bar, self.pi_min
        validate_price_band(pi_bar, pi_min)
        _check_beta(beta)
        _check_demand(demand)
        _check_step(self.theta, arrivals_value)
        price = _optimal_spot_price(demand, beta, pi_bar, pi_min)
        n = _accepted_bids(demand, price, pi_bar, pi_min)
        self._state = _next_demand(demand, n, arrivals_value, self.theta)
        return price, n, self._state

    def run(self, n_slots: int, rng: np.random.Generator) -> ProviderTrace:
        """Simulate ``n_slots`` slots and return the full trace."""
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots!r}")
        arrivals_seq = self.arrivals.sample(n_slots, rng)
        demand: List[float] = []
        price: List[float] = []
        accepted: List[float] = []
        step = self.step
        for value in np.asarray(arrivals_seq, dtype=float).tolist():
            demand.append(self._state)
            p, n, _ = step(value)
            price.append(p)
            accepted.append(n)
        return ProviderTrace(
            demand=np.asarray(demand, dtype=float),
            price=np.asarray(price, dtype=float),
            accepted=np.asarray(accepted, dtype=float),
            arrivals=arrivals_seq,
        )


@dataclass
class ElasticProviderSimulation(ProviderSimulation):
    """Provider loop with price-elastic demand (footnote 5).

    The paper assumes the spot price does not feed back into demand
    because "the spot price is generally much lower than the on-demand
    price".  This variant drops that assumption: each slot's arrivals
    are scaled by ``1 − elasticity·(π(t−1) − π_min)/(π̄ − π_min)`` —
    when prices rise toward on-demand, some would-be spot users defect
    to on-demand instances.  ``elasticity = 0`` recovers the base model.
    """

    elasticity: float = 0.0
    _last_price: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.elasticity <= 1.0:
            raise DistributionError(
                f"elasticity must be in [0, 1], got {self.elasticity!r}"
            )
        self._last_price = self.pi_min

    def step(self, arrivals_value: float) -> tuple:
        fraction = (self._last_price - self.pi_min) / (self.pi_bar - self.pi_min)
        scaled = arrivals_value * max(0.0, 1.0 - self.elasticity * fraction)
        price, n, demand = super().step(scaled)
        self._last_price = price
        return price, n, demand
