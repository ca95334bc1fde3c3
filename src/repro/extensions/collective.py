"""Collective user behavior (Section 8, "Collective user behavior").

The paper's strategies assume a single optimizing user cannot move the
spot price.  If *many* users optimize, the bid-price distribution the
provider sees is no longer the uniform ``f_p`` of Section 4.1, which
changes the revenue-maximizing spot prices, which changes the optimal
bids, and so on.  The paper suggests studying exactly this loop: "assume
that users with a distribution of jobs optimize their bids and use
Section 4's model to derive the effect on the provider's offered spot
price."

:func:`iterate_collective_bidding` implements that study as a best-
response iteration:

1. Start from the uniform bid distribution (the paper's baseline).
2. Simulate the provider's closed-loop market against the current bid
   distribution (a mixture of strategic bid atoms and residual uniform
   background), producing a price trace.
3. Let each strategic user class re-optimize its bid against the
   empirical distribution of that trace.
4. Repeat until bids stop moving (a fixed point) or a round limit hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.distcache import cached_distribution
from ..core.persistent import optimal_persistent_bid
from ..core.types import JobSpec
from ..errors import DistributionError
from ..provider.arrivals import ArrivalProcess
from ..provider.pricing import validate_price_band
from .kernels import collective_slot_kernel

__all__ = ["StrategicClass", "CollectiveRound", "CollectiveOutcome", "iterate_collective_bidding"]


@dataclass(frozen=True)
class StrategicClass:
    """A class of identical optimizing users."""

    job: JobSpec
    #: Fraction of the provider's total demand placed by this class.
    weight: float

    def __post_init__(self) -> None:
        if not 0.0 < self.weight <= 1.0:
            raise DistributionError(f"weight must be in (0, 1], got {self.weight!r}")


@dataclass(frozen=True)
class CollectiveRound:
    """One best-response round's bids and resulting mean price."""

    bids: tuple
    mean_price: float
    price_std: float


@dataclass(frozen=True)
class CollectiveOutcome:
    """The whole iteration: per-round records plus convergence data."""

    rounds: List[CollectiveRound]
    converged: bool

    @property
    def final_bids(self) -> tuple:
        return self.rounds[-1].bids

    @property
    def price_drift(self) -> float:
        """Mean-price change from the uniform baseline to the fixed point."""
        return self.rounds[-1].mean_price - self.rounds[0].mean_price


def _simulate_prices(
    strategic_bids: Sequence[float],
    weights: Sequence[float],
    background_weight: float,
    arrivals: ArrivalProcess,
    *,
    beta: float,
    theta: float,
    pi_bar: float,
    pi_min: float,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Closed-loop provider against the mixed bid distribution.

    The price is optimized per slot over the candidate set where the
    objective can change: the floor, each strategic atom (and just above
    it), and a grid over the uniform background.
    """
    candidates = {pi_min}
    for b in strategic_bids:
        clipped = min(max(b, pi_min), pi_bar)
        candidates.add(clipped)
        candidates.add(min(clipped + 1e-9, pi_bar))
    candidates.update(np.linspace(pi_min, pi_bar, 64))
    cand = np.asarray(sorted(candidates))

    demand = arrivals.mean() / theta if math.isfinite(arrivals.mean()) else 1.0
    arr_seq = arrivals.sample(n_slots, rng)
    prices = np.empty(n_slots)
    # The slot loop stays sequential (each slot's demand feeds the
    # next), but the per-slot candidate scan runs through the batched
    # ``collective_slot`` kernel; ``argmax`` first-occurrence ties
    # reproduce the scalar loop's strict-inequality scan.
    for t in range(n_slots):
        scan = collective_slot_kernel(
            cand,
            strategic_bids,
            weights,
            background_weight,
            demand,
            beta=beta,
            pi_bar=pi_bar,
            pi_min=pi_min,
        )
        best = int(np.argmax(scan["objective"]))
        best_price = float(cand[best])
        n_accept = demand * float(scan["fraction"][best])
        prices[t] = best_price
        demand = max(0.0, demand - theta * n_accept + float(arr_seq[t]))
    return prices


def iterate_collective_bidding(
    classes: Sequence[StrategicClass],
    arrivals: ArrivalProcess,
    *,
    beta: float,
    theta: float,
    pi_bar: float,
    pi_min: float,
    n_slots: int = 2000,
    max_rounds: int = 10,
    tolerance: float = 1e-4,
    rng: np.random.Generator,
) -> CollectiveOutcome:
    """Run the best-response loop described in Section 8.

    Returns the per-round bid vectors and price statistics.  Convergence
    means every class's bid moved less than ``tolerance`` between the
    last two rounds.
    """
    validate_price_band(pi_bar, pi_min)
    total_weight = sum(c.weight for c in classes)
    if total_weight > 1.0 + 1e-9:
        raise DistributionError(
            f"strategic class weights sum to {total_weight!r} > 1"
        )
    background = 1.0 - total_weight

    # Round 0: the paper's baseline — nobody strategic yet.
    prices = _simulate_prices(
        [], [], 1.0, arrivals,
        beta=beta, theta=theta, pi_bar=pi_bar, pi_min=pi_min,
        n_slots=n_slots, rng=rng,
    )
    rounds: List[CollectiveRound] = [
        CollectiveRound(bids=(), mean_price=float(prices.mean()),
                        price_std=float(prices.std()))
    ]
    bids = []
    converged = False
    for _round in range(max_rounds):
        # Shared distribution cache: every class in the round (and any
        # repeat of the same trace) reuses one fitted ECDF.
        dist = cached_distribution(prices, upper=pi_bar)
        new_bids = tuple(
            optimal_persistent_bid(dist, c.job).price for c in classes
        )
        prices = _simulate_prices(
            new_bids, [c.weight for c in classes], background, arrivals,
            beta=beta, theta=theta, pi_bar=pi_bar, pi_min=pi_min,
            n_slots=n_slots, rng=rng,
        )
        rounds.append(
            CollectiveRound(
                bids=new_bids,
                mean_price=float(prices.mean()),
                price_std=float(prices.std()),
            )
        )
        if bids and max(
            abs(a - b) for a, b in zip(new_bids, bids)
        ) < tolerance:
            converged = True
            break
        bids = list(new_bids)
    return CollectiveOutcome(rounds=rounds, converged=converged)
