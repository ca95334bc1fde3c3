"""Spot-price distributions.

Every bidding strategy in the paper consumes the spot-price distribution
``F_π`` and nothing else (footnote 7: the strategies "do not explicitly
depend on the provider model ... but rather on the spot price's PDF").
This module defines the interface those strategies program against and two
families of implementations:

* :class:`EmpiricalPriceDistribution` — built from an observed price trace,
  exactly what a real client computes from Amazon's two-month history.
* Closed-form parametric distributions (uniform, truncated exponential)
  used by unit tests and analytic cross-checks.

The equilibrium distribution induced by the Section 4 provider model lives
in :mod:`repro.provider.equilibrium` and implements the same interface.

Three integral quantities drive all of the paper's formulas, so they are
first-class methods here:

``cdf(p)``
    ``F_π(p)`` — probability a bid at ``p`` is accepted in a slot.
``partial_expectation(p)``
    ``S(p) = ∫_π^p x f_π(x) dx`` — the *unnormalized* expected price below
    ``p``.  The expected price actually paid (eq. 9) is ``S(p)/F(p)``.
``expected_shortfall(p)``
    ``P(p) = ∫_π^p (p − x) f_π(x) dx = p·F(p) − S(p)`` — used by the
    persistent-bid optimality condition (Prop. 5).
"""

from __future__ import annotations

import abc
import math
from typing import Optional, Sequence

import numpy as np

from ..errors import DistributionError, SupportError

__all__ = [
    "PriceDistribution",
    "EmpiricalPriceDistribution",
    "UniformPriceDistribution",
    "TruncatedExponentialPriceDistribution",
]


class PriceDistribution(abc.ABC):
    """Interface for a distribution of per-slot spot prices ($/hour)."""

    #: Inclusive lower edge of the support (the minimum spot price π_min).
    lower: float
    #: Upper edge of the support.  Prices never exceed the on-demand price.
    upper: float

    # ------------------------------------------------------------------
    # Abstract core
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def cdf(self, price: float) -> float:
        """Return ``F_π(price)``, clamped to [0, 1] outside the support."""

    @abc.abstractmethod
    def pdf(self, price: float) -> float:
        """Return the density ``f_π(price)`` (0 outside the support)."""

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` i.i.d. spot prices."""

    # ------------------------------------------------------------------
    # Derived quantities with generic numeric implementations.
    # Subclasses override these with closed forms where available.
    # ------------------------------------------------------------------
    def ppf(self, quantile: float) -> float:
        """Return the smallest price ``p`` with ``F_π(p) >= quantile``.

        ``quantile <= 0`` maps to the lower support edge and
        ``quantile >= 1`` to the upper edge, which is the behaviour
        Prop. 4 relies on (a short job bids the minimum spot price).
        """
        from scipy import optimize

        if math.isnan(quantile):
            raise DistributionError("quantile must not be NaN")
        if quantile <= 0.0:
            return self.lower
        if quantile >= 1.0:
            return self.upper
        lo, hi = self.lower, self.upper
        if self.cdf(lo) >= quantile:
            return lo
        return float(
            optimize.brentq(lambda p: self.cdf(p) - quantile, lo, hi, xtol=1e-12)
        )

    def partial_expectation(self, price: float) -> float:
        """Return ``S(price) = ∫_lower^price x f_π(x) dx``."""
        from scipy import integrate

        if price <= self.lower:
            return 0.0
        hi = min(price, self.upper)
        value, _abserr = integrate.quad(
            lambda x: x * self.pdf(x), self.lower, hi, limit=200
        )
        return float(value)

    def expected_shortfall(self, price: float) -> float:
        """Return ``P(price) = price·F(price) − S(price)`` (>= 0)."""
        return price * self.cdf(price) - self.partial_expectation(price)

    def conditional_mean_below(self, price: float) -> float:
        """Return ``E[π | π <= price]`` — the expected price paid (eq. 9).

        Raises :class:`SupportError` if ``F(price) == 0`` (conditioning on
        a null event).
        """
        accept = self.cdf(price)
        if accept <= 0.0:
            raise SupportError(
                f"bid {price!r} is below the entire price support "
                f"[{self.lower}, {self.upper}]; acceptance probability is 0"
            )
        return self.partial_expectation(price) / accept

    def mean(self) -> float:
        """Return the unconditional mean spot price."""
        return self.partial_expectation(self.upper)

    def candidate_bids(self) -> Optional[np.ndarray]:
        """Return the finite set of bid prices worth considering, if any.

        For discrete (empirical) distributions the objective functions are
        piecewise-constant between atoms, so optimizers only need to scan
        the atoms.  Continuous distributions return ``None`` and are
        optimized with root finding.
        """
        return None

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_support(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DistributionError(
                f"support edges must be finite, got [{self.lower}, {self.upper}]"
            )
        if self.lower < 0:
            raise DistributionError(f"prices must be non-negative, got lower={self.lower}")
        if self.upper < self.lower:
            raise DistributionError(
                f"upper support edge {self.upper} below lower edge {self.lower}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(lower={self.lower:.6g}, upper={self.upper:.6g})"
        )


class EmpiricalPriceDistribution(PriceDistribution):
    """The ECDF of an observed spot-price trace.

    This is the distribution a real bidding client builds from the price
    history Amazon exposes (Figure 1's "price monitor").  All quantities
    are exact for the discrete distribution that puts mass ``1/n`` on each
    observation, computed with O(log n) lookups over presorted arrays.

    Parameters
    ----------
    prices:
        Observed per-slot spot prices, in any order.
    upper:
        Optional explicit upper support edge (e.g. the on-demand price).
        Defaults to the maximum observation.
    """

    def __init__(self, prices: Sequence[float], *, upper: Optional[float] = None):
        arr = np.asarray(prices, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DistributionError("prices must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise DistributionError("prices must all be finite")
        if np.any(arr < 0):
            raise DistributionError("prices must be non-negative")
        self._sorted = np.sort(arr)
        self._n = self._sorted.size
        # Cumulative sums enable O(log n) partial expectations/moments.
        self._cumsum = np.concatenate(([0.0], np.cumsum(self._sorted)))
        self._cumsum_sq = np.concatenate(([0.0], np.cumsum(self._sorted**2)))
        self.lower = float(self._sorted[0])
        observed_max = float(self._sorted[-1])
        if upper is None:
            self.upper = observed_max
        else:
            if upper < observed_max:
                raise DistributionError(
                    f"explicit upper edge {upper} is below the maximum "
                    f"observation {observed_max}"
                )
            self.upper = float(upper)
        self._check_support()
        self._unique = np.unique(self._sorted)

    # -- core ----------------------------------------------------------
    @property
    def n_observations(self) -> int:
        """Number of price observations backing the ECDF."""
        return self._n

    def cdf(self, price: float) -> float:
        count = np.searchsorted(self._sorted, price, side="right")
        return float(count) / self._n

    def cdf_array(self, prices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cdf` for candidate scans."""
        counts = np.searchsorted(self._sorted, prices, side="right")
        return counts / self._n

    def pdf(self, price: float) -> float:
        """Histogram-style density estimate.

        An ECDF has no density; this returns the probability mass at the
        nearest atom divided by the local atom spacing, which is adequate
        for plotting and for the concavity heuristics.  All optimization
        paths use :meth:`cdf`/:meth:`partial_expectation` instead.
        """
        if price < self.lower or price > self.upper:
            return 0.0
        if self._unique.size == 1:
            return math.inf if price == self.lower else 0.0
        idx = int(np.clip(np.searchsorted(self._unique, price), 0, self._unique.size - 1))
        left = self._unique[max(idx - 1, 0)]
        right = self._unique[min(idx + 1, self._unique.size - 1)]
        width = max((right - left) / 2.0, 1e-12)
        mass = self.cdf(self._unique[idx]) - (
            self.cdf(self._unique[idx - 1]) if idx > 0 else 0.0
        )
        return mass / width

    def ppf(self, quantile: float) -> float:
        if math.isnan(quantile):
            raise DistributionError("quantile must not be NaN")
        if quantile <= 0.0:
            return self.lower
        if quantile >= 1.0:
            return float(self._sorted[-1])
        # Smallest observation x with F(x) >= q, i.e. index ceil(q*n) - 1.
        idx = int(math.ceil(quantile * self._n)) - 1
        idx = min(max(idx, 0), self._n - 1)
        return float(self._sorted[idx])

    def partial_expectation(self, price: float) -> float:
        count = int(np.searchsorted(self._sorted, price, side="right"))
        return float(self._cumsum[count]) / self._n

    def partial_expectation_array(self, prices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partial_expectation`."""
        counts = np.searchsorted(self._sorted, prices, side="right")
        return self._cumsum[counts] / self._n

    def partial_second_moment(self, price: float) -> float:
        """``∫_lower^price x² f(x) dx`` — used by risk-aware bidding."""
        count = int(np.searchsorted(self._sorted, price, side="right"))
        return float(self._cumsum_sq[count]) / self._n

    def partial_second_moment_array(self, prices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`partial_second_moment`."""
        counts = np.searchsorted(self._sorted, prices, side="right")
        return self._cumsum_sq[counts] / self._n

    def mean(self) -> float:
        return float(self._cumsum[-1]) / self._n

    def candidate_bids(self) -> np.ndarray:
        """All distinct observed prices — the only bids worth scanning."""
        return self._unique.copy()

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self._sorted, size=size, replace=True)

    def percentile(self, q: float) -> float:
        """Return the ``q``-th percentile price, ``q`` in [0, 100].

        Convenience wrapper used by the 90th-percentile heuristic (§7.1).
        """
        if not 0.0 <= q <= 100.0:
            raise DistributionError(f"percentile must be within [0, 100], got {q!r}")
        return self.ppf(q / 100.0)


class UniformPriceDistribution(PriceDistribution):
    """Uniform prices on ``[lower, upper]`` — closed forms for everything.

    The paper uses a uniform distribution to model the *bids* arriving at
    the provider (Section 4.1); here it doubles as a simple analytic price
    model for tests and examples.
    """

    def __init__(self, lower: float, upper: float):
        if not upper > lower >= 0:
            raise DistributionError(
                f"need 0 <= lower < upper, got [{lower!r}, {upper!r}]"
            )
        self.lower = float(lower)
        self.upper = float(upper)
        self._check_support()

    def cdf(self, price: float) -> float:
        if price <= self.lower:
            return 0.0
        if price >= self.upper:
            return 1.0
        return (price - self.lower) / (self.upper - self.lower)

    def pdf(self, price: float) -> float:
        if self.lower <= price <= self.upper:
            return 1.0 / (self.upper - self.lower)
        return 0.0

    def ppf(self, quantile: float) -> float:
        if math.isnan(quantile):
            raise DistributionError("quantile must not be NaN")
        q = min(max(quantile, 0.0), 1.0)
        return self.lower + q * (self.upper - self.lower)

    def partial_expectation(self, price: float) -> float:
        if price <= self.lower:
            return 0.0
        hi = min(price, self.upper)
        return (hi * hi - self.lower * self.lower) / (2.0 * (self.upper - self.lower))

    def mean(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=size)


class TruncatedExponentialPriceDistribution(PriceDistribution):
    """Exponential decay from ``lower``, truncated at ``upper``.

    Density ``f(p) ∝ exp(−(p − lower)/scale)`` on ``[lower, upper]``.
    Its PDF is monotonically decreasing, satisfying Prop. 5's concavity
    requirement, and it mimics the knee-shaped empirical spot-price
    distributions (Figure 3) closely enough for analytic tests.
    """

    def __init__(self, lower: float, upper: float, scale: float):
        if not upper > lower >= 0:
            raise DistributionError(
                f"need 0 <= lower < upper, got [{lower!r}, {upper!r}]"
            )
        if not scale > 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        self.lower = float(lower)
        self.upper = float(upper)
        self.scale = float(scale)
        # Normalizing constant: total un-truncated mass on [lower, upper].
        self._mass = 1.0 - math.exp(-(self.upper - self.lower) / self.scale)
        self._check_support()

    def cdf(self, price: float) -> float:
        if price <= self.lower:
            return 0.0
        if price >= self.upper:
            return 1.0
        raw = 1.0 - math.exp(-(price - self.lower) / self.scale)
        return raw / self._mass

    def pdf(self, price: float) -> float:
        if self.lower <= price <= self.upper:
            return math.exp(-(price - self.lower) / self.scale) / (
                self.scale * self._mass
            )
        return 0.0

    def ppf(self, quantile: float) -> float:
        if math.isnan(quantile):
            raise DistributionError("quantile must not be NaN")
        if quantile <= 0.0:
            return self.lower
        if quantile >= 1.0:
            return self.upper
        return self.lower - self.scale * math.log(1.0 - quantile * self._mass)

    def partial_expectation(self, price: float) -> float:
        if price <= self.lower:
            return 0.0
        hi = min(price, self.upper)
        s, a = self.scale, self.lower
        # ∫_a^hi x e^{-(x-a)/s} dx / (s * mass)
        integral = (a + s) - (hi + s) * math.exp(-(hi - a) / s)
        return integral / self._mass

    def mean(self) -> float:
        return self.partial_expectation(self.upper)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(0.0, 1.0, size=size)
        return self.lower - self.scale * np.log(1.0 - u * self._mass)
