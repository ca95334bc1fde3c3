"""The provider's per-slot price optimization (Section 4.1, eqs. 1–3).

Each slot the provider sees ``L(t)`` submitted bids whose prices are
modeled as uniform on ``[π_min, π̄]`` and chooses the spot price ``π(t)``
to maximize revenue plus a concave capacity-utilization bonus:

    maximize   β·log(1 + N) + π·N,   N = L·(π̄ − π)/(π̄ − π_min)
    subject to π_min <= π <= π̄                                (eq. 1)

The stationarity condition is eq. 2 and the closed-form maximizer eq. 3.
Both are implemented, plus a brute numeric maximizer used by the tests to
validate the algebra.
"""

from __future__ import annotations

import math

from ..errors import DistributionError

__all__ = [
    "validate_price_band",
    "accepted_bids",
    "revenue_objective",
    "optimal_spot_price",
    "optimal_spot_price_numeric",
    "stationarity_residual",
    "max_beta_for_interior_price",
    "capacity_constrained_price",
]


def validate_price_band(pi_bar: float, pi_min: float) -> None:
    """Check ``0 <= π_min < π̄`` — the admissible spot-price band."""
    if not (math.isfinite(pi_bar) and math.isfinite(pi_min)):
        raise DistributionError(
            f"price band must be finite, got [{pi_min!r}, {pi_bar!r}]"
        )
    if not 0.0 <= pi_min < pi_bar:
        raise DistributionError(
            f"need 0 <= pi_min < pi_bar, got pi_min={pi_min!r}, pi_bar={pi_bar!r}"
        )


def _check_demand(demand: float) -> None:
    if demand < 0:
        raise ValueError(f"demand must be non-negative, got {demand!r}")


def _check_beta(beta: float) -> None:
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta!r}")


def accepted_bids(demand: float, price: float, pi_bar: float, pi_min: float) -> float:
    """``N(t) = L(t)·(π̄ − π)/(π̄ − π_min)`` — bids above the spot price.

    Under the uniform bid-price model, the fraction of the ``L`` submitted
    bids that beat a spot price ``π`` is the band fraction above ``π``.
    """
    validate_price_band(pi_bar, pi_min)
    _check_demand(demand)
    return _accepted_bids(demand, price, pi_bar, pi_min)


def _accepted_bids(demand: float, price: float, pi_bar: float, pi_min: float) -> float:
    """:func:`accepted_bids` on inputs the caller has already checked."""
    fraction = (pi_bar - price) / (pi_bar - pi_min)
    return demand * min(max(fraction, 0.0), 1.0)


def revenue_objective(
    price: float, demand: float, beta: float, pi_bar: float, pi_min: float
) -> float:
    """Eq. 1's objective: ``β·log(1 + N(t)) + π(t)·N(t)``."""
    n = accepted_bids(demand, price, pi_bar, pi_min)
    return beta * math.log1p(n) + price * n


def optimal_spot_price(
    demand: float, beta: float, pi_bar: float, pi_min: float
) -> float:
    """The closed-form revenue-maximizing spot price ``π*(t)`` (eq. 3).

    .. math::

        π^* = \\max\\Big(π_{min},\\;
            \\tfrac{3}{4}π̄ + \\tfrac{1}{2}\\tfrac{π̄ − π_{min}}{L}
            − \\tfrac{1}{4}\\sqrt{\\big(π̄ + \\tfrac{2(π̄ − π_{min})}{L}\\big)^2
                                 + \\tfrac{8β(π̄ − π_{min})}{L}}\\Big)

    With no demand (``L == 0``) there is no revenue to extract and the
    price rests at the floor ``π_min``.  As ``L → ∞`` the price rises
    toward ``π̄/2`` — the unconstrained revenue maximizer for a uniform
    bid distribution.
    """
    validate_price_band(pi_bar, pi_min)
    _check_beta(beta)
    _check_demand(demand)
    return _optimal_spot_price(demand, beta, pi_bar, pi_min)


def _optimal_spot_price(
    demand: float, beta: float, pi_bar: float, pi_min: float
) -> float:
    """Eq. 3 (:func:`optimal_spot_price`) on inputs the caller has
    already checked."""
    if demand == 0.0:
        return pi_min
    band = pi_bar - pi_min
    interior = (
        0.75 * pi_bar
        + 0.5 * band / demand
        - 0.25 * math.sqrt((pi_bar + 2.0 * band / demand) ** 2 + 8.0 * beta * band / demand)
    )
    return max(pi_min, interior)


def optimal_spot_price_numeric(
    demand: float, beta: float, pi_bar: float, pi_min: float
) -> float:
    """Maximize eq. 1 numerically — a cross-check for eq. 3's algebra."""
    from scipy import optimize

    validate_price_band(pi_bar, pi_min)
    if demand == 0.0:
        return pi_min
    result = optimize.minimize_scalar(
        lambda p: -revenue_objective(p, demand, beta, pi_bar, pi_min),
        bounds=(pi_min, pi_bar),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(result.x)


def stationarity_residual(
    price: float, demand: float, beta: float, pi_bar: float, pi_min: float
) -> float:
    """Residual of eq. 2 at ``price``; zero at an interior optimum.

    Eq. 2 rearranges the first-order condition to
    ``L = (π̄ − π_min)/(π̄ − π) · (β/(π̄ − 2π) − 1)``; this returns
    ``L − RHS`` and is meaningful only for ``π < π̄/2``.
    """
    validate_price_band(pi_bar, pi_min)
    if price >= pi_bar / 2.0:
        raise ValueError(
            f"eq. 2 requires price < pi_bar/2, got {price!r} >= {pi_bar / 2.0!r}"
        )
    rhs = (pi_bar - pi_min) / (pi_bar - price) * (beta / (pi_bar - 2.0 * price) - 1.0)
    return demand - rhs


def capacity_constrained_price(
    demand: float,
    beta: float,
    pi_bar: float,
    pi_min: float,
    capacity: float,
) -> float:
    """Eq. 3's price with a hard capacity cap on accepted bids.

    Footnote 4: "The provider can keep the number of accepted bids below
    its available capacity by increasing the minimum spot price π so that
    fewer bids are accepted."  With uniform bids, accepting at most ``C``
    of ``L`` bids requires

        π >= π̄ − C·(π̄ − π_min)/L,

    so the offered price is the eq. 3 optimum lifted to that level when
    demand exceeds capacity.
    """
    validate_price_band(pi_bar, pi_min)
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity!r}")
    base = optimal_spot_price(demand, beta, pi_bar, pi_min)
    if demand <= capacity:
        return base
    floor_for_capacity = pi_bar - capacity * (pi_bar - pi_min) / demand
    return min(pi_bar, max(base, floor_for_capacity))


def max_beta_for_interior_price(demand: float, pi_bar: float, pi_min: float) -> float:
    """The paper's standing assumption ``β <= (L + 1)(π̄ − 2π_min)``.

    Below this bound the utilization bonus is weak enough that the optimal
    price stays strictly above the floor (Section 4.1).
    """
    validate_price_band(pi_bar, pi_min)
    return (demand + 1.0) * (pi_bar - 2.0 * pi_min)
