"""Equilibrium spot prices (Section 4.2, Props. 2–3).

At the queue equilibrium ``L(t+1) = L(t)``, the optimal spot price is a
deterministic, monotonically increasing function of the slot's arrivals:

    π*(t) = h(Λ(t)) = ½·(π̄ − β/(1 + Λ(t)/θ))            (eq. 6)
    h⁻¹(π) = θ·(β/(π̄ − 2π) − 1)                          (Prop. 3)

so i.i.d. arrivals induce i.i.d. spot prices whose distribution is the
push-forward of ``f_Λ`` through ``h``.  :class:`EquilibriumPriceModel`
implements the full :class:`~repro.core.distributions.PriceDistribution`
interface for that push-forward, with the price floor ``π_min`` applied
exactly as eq. 3's ``max(π_min, ·)`` does — arrivals too small to lift
the price above the floor produce an atom at ``π_min``.

The PDF is available in both conventions (see DESIGN.md):

* ``jacobian=False`` (paper's eq. 7): ``f_π(π) ≜ f_Λ(h⁻¹(π))``;
* ``jacobian=True`` (exact change of variables):
  ``f_π(π) = f_Λ(h⁻¹(π)) · 2θβ/(π̄ − 2π)²``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.distributions import PriceDistribution
from ..errors import DistributionError
from .arrivals import ArrivalProcess, ParetoArrivals
from .pricing import validate_price_band

__all__ = [
    "price_from_arrivals",
    "arrivals_from_price",
    "lambda_min_for_floor",
    "EquilibriumPriceModel",
    "pareto_model_for_floor",
    "pareto_model_with_atom",
]

#: Fixed Gauss–Legendre rule used by the vectorized partial expectation.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def price_from_arrivals(
    arrivals: float, beta: float, theta: float, pi_bar: float
) -> float:
    """``h(Λ) = ½(π̄ − β/(1 + Λ/θ))`` (eq. 6), *before* the floor clip."""
    if theta <= 0:
        raise DistributionError(f"theta must be positive, got {theta!r}")
    if arrivals < 0:
        raise ValueError(f"arrivals must be non-negative, got {arrivals!r}")
    return 0.5 * (pi_bar - beta / (1.0 + arrivals / theta))


def arrivals_from_price(
    price: float, beta: float, theta: float, pi_bar: float
) -> float:
    """``h⁻¹(π) = θ(β/(π̄ − 2π) − 1)`` (Prop. 3).

    Defined for ``π < π̄/2``; clamped at 0 when the price is so low the
    formula would imply negative arrivals.
    """
    if theta <= 0:
        raise DistributionError(f"theta must be positive, got {theta!r}")
    if price >= pi_bar / 2.0:
        raise DistributionError(
            f"equilibrium prices lie below pi_bar/2 = {pi_bar / 2.0:.6g}, "
            f"got {price!r}"
        )
    return max(0.0, theta * (beta / (pi_bar - 2.0 * price) - 1.0))


def lambda_min_for_floor(
    pi_min: float, beta: float, theta: float, pi_bar: float
) -> float:
    """``Λ_min = θ(β/(π̄ − 2π_min) − 1)`` — the arrival level at which the
    equilibrium price first rises above the floor (Section 4.3)."""
    validate_price_band(pi_bar, pi_min)
    return arrivals_from_price(pi_min, beta, theta, pi_bar)


class EquilibriumPriceModel(PriceDistribution):
    """The spot-price distribution induced by arrivals at equilibrium.

    Parameters
    ----------
    arrivals:
        The per-slot arrival distribution ``f_Λ``.
    beta, theta:
        The provider's utilization weight and per-slot job-completion
        fraction (eq. 1, eq. 4).
    pi_bar:
        The on-demand price ``π̄`` ($/hour).
    pi_min:
        The price floor ``π_min``; eq. 3 clips prices here, creating an
        atom when the arrival distribution has mass below ``Λ_min``.
    """

    def __init__(
        self,
        arrivals: ArrivalProcess,
        *,
        beta: float,
        theta: float,
        pi_bar: float,
        pi_min: float,
    ):
        validate_price_band(pi_bar, pi_min)
        if beta <= 0:
            raise DistributionError(f"beta must be positive, got {beta!r}")
        if theta <= 0:
            raise DistributionError(f"theta must be positive, got {theta!r}")
        if pi_min >= pi_bar / 2.0:
            raise DistributionError(
                f"the floor pi_min={pi_min!r} must lie below the equilibrium "
                f"ceiling pi_bar/2={pi_bar / 2.0!r}"
            )
        self.arrivals = arrivals
        self.beta = float(beta)
        self.theta = float(theta)
        self.pi_bar = float(pi_bar)
        self.lower = float(pi_min)
        #: Equilibrium prices approach but never reach π̄/2 as Λ → ∞.
        self.upper = self.pi_bar / 2.0
        #: Arrival level below which the price floor binds.
        self.lambda_floor = lambda_min_for_floor(pi_min, beta, theta, pi_bar)
        #: Probability mass clipped onto the floor price.
        self.floor_mass = self.arrivals.cdf(self.lambda_floor)
        self._check_support()

    # -- mapping -------------------------------------------------------
    def h(self, arrivals_value: float) -> float:
        """Floor-clipped equilibrium price for a given arrival level."""
        raw = price_from_arrivals(arrivals_value, self.beta, self.theta, self.pi_bar)
        return max(self.lower, raw)

    def h_inverse(self, price: float) -> float:
        """Arrival level mapping to ``price`` (for ``price`` above the floor)."""
        return arrivals_from_price(price, self.beta, self.theta, self.pi_bar)

    # -- PriceDistribution interface ------------------------------------
    def cdf(self, price: float) -> float:
        if price < self.lower:
            return 0.0
        if price >= self.upper:
            return 1.0
        return self.arrivals.cdf(self.h_inverse(price))

    def pdf(self, price: float, *, jacobian: bool = True) -> float:
        """Density above the floor (the floor atom carries ``floor_mass``).

        ``jacobian=False`` reproduces the paper's eq. 7 exactly.
        """
        if price <= self.lower or price >= self.upper:
            return 0.0
        lam = self.h_inverse(price)
        base = self.arrivals.pdf(lam)
        if not jacobian:
            return base
        return base * 2.0 * self.theta * self.beta / (self.pi_bar - 2.0 * price) ** 2

    def ppf(self, quantile: float) -> float:
        if math.isnan(quantile):
            raise DistributionError("quantile must not be NaN")
        if quantile <= self.floor_mass:
            return self.lower
        if quantile >= 1.0:
            return self.upper
        lam = self.arrivals.ppf(quantile)
        return self.h(lam)

    def cdf_array(self, prices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cdf` (used by the candidate-scan optimizers)."""
        prices = np.asarray(prices, dtype=float)
        out = np.empty(prices.shape)
        flat = prices.reshape(-1)
        res = np.empty(flat.shape)
        below = flat < self.lower
        above = flat >= self.upper
        mid = ~below & ~above
        res[below] = 0.0
        res[above] = 1.0
        if mid.any():
            lam = np.maximum(
                0.0,
                self.theta * (self.beta / (self.pi_bar - 2.0 * flat[mid]) - 1.0),
            )
            res[mid] = self.arrivals.cdf_array(lam)
        out.reshape(-1)[:] = res
        return out

    def _price_space_integrand(self, x: np.ndarray) -> np.ndarray:
        """``x·f_π(x)`` (jacobian convention) — the partial-expectation
        integrand after the change of variables ``x = h(Λ)``."""
        lam = np.maximum(
            0.0, self.theta * (self.beta / (self.pi_bar - 2.0 * x) - 1.0)
        )
        jac = 2.0 * self.theta * self.beta / (self.pi_bar - 2.0 * x) ** 2
        return x * self.arrivals.pdf_array(lam) * jac

    def partial_expectation_array(self, prices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partial_expectation`.

        One composite Gauss–Legendre pass over the price support replaces
        a per-price adaptive ``quad`` from the support bottom — the
        difference between O(n) and O(n²) integrand work when scanning a
        candidate grid.  Values agree with the scalar method to quadrature
        accuracy (~1e-10 relative), not bitwise.
        """
        prices = np.asarray(prices, dtype=float)
        flat = prices.reshape(-1)
        res = np.full(flat.shape, self.lower * self.floor_mass)
        res[flat < self.lower] = 0.0
        hi = np.minimum(flat, self.upper)
        active = (flat >= self.lower) & (hi > self.lower)
        if active.any():
            targets = np.unique(hi[active])
            # Segment edges: every query point, refined with a uniform
            # grid so wide gaps between queries stay well resolved.
            edges = np.union1d(
                targets, np.linspace(self.lower, float(targets.max()), 257)
            )
            edges = edges[edges >= self.lower]
            if edges[0] > self.lower:
                edges = np.concatenate([[self.lower], edges])
            a, b = edges[:-1], edges[1:]
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            w = half[:, None] * _GL_WEIGHTS[None, :]
            segments = (self._price_space_integrand(x.reshape(-1)).reshape(x.shape) * w).sum(
                axis=1
            )
            cumulative = np.concatenate([[0.0], np.cumsum(segments)])
            integral_at = cumulative[np.searchsorted(edges, targets)]
            lookup = np.searchsorted(targets, hi[active])
            res[active] = self.lower * self.floor_mass + integral_at[lookup]
        return res.reshape(prices.shape)

    def partial_expectation(self, price: float) -> float:
        from scipy import integrate

        if price < self.lower:
            return 0.0
        hi = min(price, self.upper)
        total = self.lower * self.floor_mass
        if hi <= self.lower:
            return total
        lam_lo = max(self.lambda_floor, self.arrivals.lower)
        if hi >= self.upper:
            lam_hi = math.inf
        else:
            lam_hi = self.h_inverse(hi)
        if lam_hi <= lam_lo:
            return total

        def integrand(lam: float) -> float:
            return self.h(lam) * self.arrivals.pdf(lam)

        if math.isinf(lam_hi):
            value, _err = integrate.quad(integrand, lam_lo, math.inf, limit=400)
        else:
            value, _err = integrate.quad(integrand, lam_lo, lam_hi, limit=400)
        return total + float(value)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        lam = self.arrivals.sample(size, rng)
        raw = 0.5 * (self.pi_bar - self.beta / (1.0 + lam / self.theta))
        return np.maximum(self.lower, raw)


def pareto_model_for_floor(
    *,
    beta: float,
    theta: float,
    alpha: float,
    pi_bar: float,
    pi_min: float,
) -> EquilibriumPriceModel:
    """Build the Pareto equilibrium model of Section 4.3.

    The Pareto minimum is tied to the price floor via
    ``Λ_min = θ(β/(π̄ − 2π_min) − 1)``, so the generated prices have
    support exactly ``[π_min, π̄/2)`` with no floor atom — the
    configuration the paper fits to the EC2 histories (Figure 3).
    """
    lam_min = lambda_min_for_floor(pi_min, beta, theta, pi_bar)
    if lam_min <= 0.0:
        raise DistributionError(
            f"beta={beta!r} is too small relative to the band "
            f"[{pi_min!r}, {pi_bar!r}]: Λ_min = θ(β/(π̄−2π_min) − 1) must be "
            "positive for a Pareto arrival model"
        )
    arrivals = ParetoArrivals(alpha=alpha, minimum=lam_min)
    return EquilibriumPriceModel(
        arrivals, beta=beta, theta=theta, pi_bar=pi_bar, pi_min=pi_min
    )


def pareto_model_with_atom(
    *,
    beta: float,
    theta: float,
    alpha: float,
    pi_bar: float,
    pi_min: float,
    floor_mass: float,
) -> EquilibriumPriceModel:
    """Pareto equilibrium model with an explicit price-floor atom.

    Real EC2 spot prices spend a large fraction of slots parked *at* the
    minimum price, with a heavy-tailed continuum of excursions above it
    (the knee shape of Figure 3).  Eq. 3's ``max(π_min, ·)`` produces
    exactly this when arrivals have mass below ``Λ_min``: choosing the
    Pareto minimum ``Λ_m = Λ_min·(1 − q)^{1/α}`` puts probability ``q`` on
    the floor price and a Pareto tail above it.

    Parameters
    ----------
    floor_mass:
        ``q`` — probability that a slot's price equals ``π_min``
        (0 recovers :func:`pareto_model_for_floor`).
    """
    if not 0.0 <= floor_mass < 1.0:
        raise DistributionError(
            f"floor_mass must be in [0, 1), got {floor_mass!r}"
        )
    lam_floor = lambda_min_for_floor(pi_min, beta, theta, pi_bar)
    if lam_floor <= 0.0:
        raise DistributionError(
            f"beta={beta!r} is too small relative to the band "
            f"[{pi_min!r}, {pi_bar!r}]: Λ_min must be positive"
        )
    lam_min = lam_floor * (1.0 - floor_mass) ** (1.0 / alpha)
    arrivals = ParetoArrivals(alpha=alpha, minimum=lam_min)
    return EquilibriumPriceModel(
        arrivals, beta=beta, theta=theta, pi_bar=pi_bar, pi_min=pi_min
    )
