"""Fitting the provider model to observed spot prices (Section 4.3, Fig. 3).

The paper estimates the spot-price PDF by pushing Pareto and exponential
arrival distributions through Prop. 3 and choosing the parameters that
minimize the least-squares divergence from the empirical price histogram.
This module reproduces that procedure.

Identifiability note (documented, not in the paper): through eq. 6/7 the
price distribution depends on ``θ`` only via the ratios ``Λ_min/θ`` and
``η/θ``, so ``θ`` cannot be identified from prices alone.  We therefore
fix ``θ`` a priori (the paper uses 0.02 for every instance type) and fit
the remaining parameters, exactly as Figure 3's caption reports a single
``θ`` across panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..errors import FittingError
from .arrivals import ArrivalProcess, ExponentialArrivals, ParetoArrivals
from .equilibrium import EquilibriumPriceModel, lambda_min_for_floor

__all__ = [
    "PriceHistogram",
    "histogram_pdf",
    "FitResult",
    "model_density",
    "fit_pareto",
    "fit_exponential",
    "fit_both_families",
]

#: Default θ (per-slot completion fraction) used by every Figure 3 panel.
DEFAULT_THETA = 0.02

#: Default number of histogram bins for the empirical PDF.
DEFAULT_BINS = 40


@dataclass(frozen=True)
class PriceHistogram:
    """An empirical price PDF: bin centers, densities and bin widths."""

    centers: np.ndarray
    density: np.ndarray
    widths: np.ndarray

    @property
    def masses(self) -> np.ndarray:
        """Per-bin probability masses (density × width)."""
        return self.density * self.widths


def histogram_pdf(prices: Sequence[float], bins: int = DEFAULT_BINS) -> PriceHistogram:
    """Histogram-estimate the spot-price PDF (the blue bars of Figure 3)."""
    arr = np.asarray(prices, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise FittingError("prices must be a non-empty 1-D sequence")
    if bins < 2:
        raise FittingError(f"need at least 2 bins, got {bins!r}")
    density, edges = np.histogram(arr, bins=bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return PriceHistogram(centers=centers, density=density, widths=widths)


@dataclass(frozen=True)
class FitResult:
    """One fitted arrival family for one instance type (a Figure 3 curve)."""

    family: str  #: "pareto" or "exponential"
    beta: float
    theta: float
    #: Pareto tail index α, or None for the exponential family.
    alpha: Optional[float]
    #: Exponential scale η, or None for the Pareto family.
    eta: Optional[float]
    pi_bar: float
    pi_min: float
    #: Fitted probability mass parked at the floor price.  For the
    #: exponential family this is implied by η rather than fitted freely.
    floor_mass: float
    #: Mean squared error between fitted and empirical densities.
    mse_density: float
    #: Mean squared error between fitted and empirical per-bin masses —
    #: the scale on which the paper reports "MSE < 1e-6".
    mse_mass: float

    def model(self) -> EquilibriumPriceModel:
        """Instantiate the fitted equilibrium price model."""
        lam_floor = lambda_min_for_floor(self.pi_min, self.beta, self.theta, self.pi_bar)
        if self.family == "pareto":
            alpha = float(self.alpha)
            lam_min = lam_floor * (1.0 - self.floor_mass) ** (1.0 / alpha)
            arrivals = ParetoArrivals(alpha=alpha, minimum=lam_min)
        elif self.family == "exponential":
            arrivals = ExponentialArrivals(eta=float(self.eta))
        else:  # pragma: no cover - enum-like guard
            raise FittingError(f"unknown family {self.family!r}")
        return EquilibriumPriceModel(
            arrivals,
            beta=self.beta,
            theta=self.theta,
            pi_bar=self.pi_bar,
            pi_min=self.pi_min,
        )


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy 1.x/2.x compat


def _normalized_curve(raw: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Scale a non-negative curve to integrate to 1 over the bin range."""
    area = float(_trapezoid(raw, centers))
    if area <= 0.0 or not math.isfinite(area):
        return np.full_like(raw, np.inf)
    return raw / area


def _density_on_bins(
    centers: np.ndarray,
    widths: np.ndarray,
    *,
    family: str,
    theta: float,
    pi_bar: float,
    pi_min: float,
    jacobian: bool,
) -> Callable[[float, float, float], np.ndarray]:
    """:func:`model_density` on fixed bins, as ``density(beta, shape,
    floor_mass)``.

    Everything that depends on the bins alone — ``π̄ − 2·centers``, its
    square, the ``centers ≥ π̄/2`` mask and the floor-bin mask — is
    computed here once, so a fit's residual calls redo only the work
    that depends on the parameters.
    """
    centers = np.asarray(centers, dtype=float)
    widths = np.asarray(widths, dtype=float)
    gap = pi_bar - 2.0 * centers
    gap_sq = gap**2
    above_half = centers >= pi_bar / 2.0
    floor_gap = pi_bar - 2.0 * pi_min
    # Bins at or below the floor hold the atom, not continuum density.
    floor_bin = (centers - widths / 2.0 <= pi_min) & (pi_min < centers + widths / 2.0)
    has_floor_bin = bool(floor_bin.any())

    def density(beta: float, shape: float, floor_mass: float) -> np.ndarray:
        lam_floor = theta * (beta / floor_gap - 1.0)
        if lam_floor <= 0.0:
            return np.full_like(centers, np.inf)
        arrivals: ArrivalProcess
        if family == "pareto":
            if not 0.0 <= floor_mass < 1.0:
                return np.full_like(centers, np.inf)
            lam_min = lam_floor * (1.0 - floor_mass) ** (1.0 / shape)
            arrivals = ParetoArrivals(alpha=shape, minimum=lam_min)
            atom = floor_mass
        elif family == "exponential":
            arrivals = ExponentialArrivals(eta=shape)
            # The floor clip puts F_Λ(Λ_min) of mass on π_min automatically.
            atom = arrivals.cdf(lam_floor)
        else:
            raise FittingError(f"unknown family {family!r}")

        with np.errstate(divide="ignore", invalid="ignore"):
            lam = theta * (beta / gap - 1.0)
        lam = np.where(above_half, np.inf, lam)
        lam = np.maximum(lam, 0.0)
        raw = arrivals.pdf_array(lam)
        raw[lam <= lam_floor] = 0.0
        if jacobian:
            with np.errstate(divide="ignore"):
                jac = 2.0 * theta * beta / gap_sq
            raw = raw * np.where(above_half, 0.0, jac)
        raw = np.where(np.isfinite(raw), raw, 0.0)
        with np.errstate(invalid="ignore"):
            curve = _normalized_curve(raw, centers) * (1.0 - atom)
            if has_floor_bin:
                curve = curve + np.where(floor_bin, atom / widths, 0.0)
        return curve

    return density


def model_density(
    centers: np.ndarray,
    widths: np.ndarray,
    *,
    family: str,
    beta: float,
    theta: float,
    shape: float,
    pi_bar: float,
    pi_min: float,
    floor_mass: float = 0.0,
    jacobian: bool = False,
) -> np.ndarray:
    """Evaluate the Prop. 3 model PDF on histogram bin centers.

    ``shape`` is α for the Pareto family and η for the exponential.  The
    probability mass parked at the floor price (``floor_mass`` for the
    Pareto family; implied by η and the floor for the exponential) is
    spread over the bin containing ``pi_min`` so the curve is comparable
    with a histogram density.  With ``jacobian=False`` (the paper's eq. 7
    convention) the continuum ``f_Λ(h⁻¹(π))`` is normalized numerically
    over the bin range so least squares against a true density is
    scale-consistent.
    """
    density = _density_on_bins(
        centers,
        widths,
        family=family,
        theta=theta,
        pi_bar=pi_bar,
        pi_min=pi_min,
        jacobian=jacobian,
    )
    return density(beta, shape, floor_mass)


def _fit_family(
    hist: PriceHistogram,
    *,
    family: str,
    pi_bar: float,
    pi_min: float,
    theta: float,
    jacobian: bool,
    beta_fixed: Optional[float],
    starts: Sequence[Tuple[float, ...]],
    bounds: Tuple[np.ndarray, np.ndarray],
) -> FitResult:
    from scipy import optimize

    target = hist.density
    density = _density_on_bins(
        hist.centers,
        hist.widths,
        family=family,
        theta=theta,
        pi_bar=pi_bar,
        pi_min=pi_min,
        jacobian=jacobian,
    )

    def unpack(x: np.ndarray):
        if family == "pareto":
            if beta_fixed is None:
                return float(x[0]), float(x[1]), float(x[2])
            return beta_fixed, float(x[0]), float(x[1])
        # exponential: floor mass is implied, not a free parameter
        if beta_fixed is None:
            return float(x[0]), float(x[1]), 0.0
        return beta_fixed, float(x[0]), 0.0

    def residuals(x: np.ndarray) -> np.ndarray:
        curve = density(*unpack(x))
        if not np.all(np.isfinite(curve)):
            return np.full_like(target, 1e6)
        return curve - target

    best = None
    for start in starts:
        try:
            sol = optimize.least_squares(
                residuals, np.asarray(start, dtype=float), bounds=bounds, xtol=1e-12
            )
        except ValueError:
            continue
        if best is None or sol.cost < best.cost:
            best = sol
    if best is None:
        raise FittingError(f"{family} fit failed from every starting point")

    beta, shape, q = unpack(best.x)
    fitted = density(beta, shape, q)
    if family == "exponential":
        lam_floor = theta * (beta / (pi_bar - 2.0 * pi_min) - 1.0)
        q = float(ExponentialArrivals(eta=shape).cdf(lam_floor))
    err = fitted - hist.density
    mse_density = float(np.mean(err**2))
    mse_mass = float(np.mean((err * hist.widths) ** 2))
    return FitResult(
        family=family,
        beta=beta,
        theta=theta,
        alpha=shape if family == "pareto" else None,
        eta=shape if family == "exponential" else None,
        pi_bar=pi_bar,
        pi_min=pi_min,
        floor_mass=q,
        mse_density=mse_density,
        mse_mass=mse_mass,
    )


def fit_pareto(
    prices: Sequence[float],
    pi_bar: float,
    *,
    theta: float = DEFAULT_THETA,
    bins: int = DEFAULT_BINS,
    jacobian: bool = False,
) -> FitResult:
    """Fit the Pareto-arrival model to observed prices (Figure 3's red line).

    Free parameters: (β, α, floor mass).  ``π_min`` is pinned to the
    minimum observed price (the paper ties ``Λ_min`` to it); ``θ`` is
    fixed (see module docstring).
    """
    arr = np.asarray(prices, dtype=float)
    hist = histogram_pdf(arr, bins=bins)
    pi_min = float(arr.min())
    if pi_min >= pi_bar / 2.0:
        raise FittingError(
            f"minimum observed price {pi_min:.6g} is not below pi_bar/2 = "
            f"{pi_bar / 2.0:.6g}; the equilibrium model cannot apply"
        )
    # Λ_min > 0 requires β > π̄ − 2π_min.
    beta_lo = (pi_bar - 2.0 * pi_min) * (1.0 + 1e-6)
    beta_hi = max(10.0 * pi_bar, 5.0 * beta_lo)
    # Seed the floor mass with the exact fraction of floor-priced slots.
    q_seed = float(np.mean(arr <= pi_min * (1.0 + 1e-9)))
    q_seed = min(max(q_seed, 0.01), 0.94)
    bounds = (
        np.asarray([beta_lo, 1.05, 0.0]),
        np.asarray([beta_hi, 60.0, 0.95]),
    )
    starts = [
        (2.0 * beta_lo, 5.0, q_seed),
        (1.2 * beta_lo, 2.0, q_seed),
        (0.5 * (beta_lo + beta_hi), 10.0, q_seed),
        (1.05 * beta_lo, 8.0, 0.3),
    ]
    return _fit_family(
        hist,
        family="pareto",
        pi_bar=pi_bar,
        pi_min=pi_min,
        theta=theta,
        jacobian=jacobian,
        beta_fixed=None,
        starts=starts,
        bounds=bounds,
    )


def fit_exponential(
    prices: Sequence[float],
    pi_bar: float,
    *,
    beta: float,
    theta: float = DEFAULT_THETA,
    bins: int = DEFAULT_BINS,
    jacobian: bool = False,
) -> FitResult:
    """Fit the exponential-arrival model with (β, θ) held fixed.

    The paper shares (β, θ) between the two families for each instance
    type, so β comes from the Pareto fit and only η is free here.
    """
    arr = np.asarray(prices, dtype=float)
    hist = histogram_pdf(arr, bins=bins)
    pi_min = float(arr.min())
    bounds = (np.asarray([1e-9]), np.asarray([10.0]))
    # Seed η near the arrival scale spanned by the observed price range.
    lam_hi = theta * (beta / max(pi_bar - 2.0 * float(arr.max()), 1e-9) - 1.0)
    seed = max(lam_hi / 5.0, 1e-6)
    starts = [(seed,), (seed * 10.0,), (seed / 10.0,), (1e-4,)]
    return _fit_family(
        hist,
        family="exponential",
        pi_bar=pi_bar,
        pi_min=pi_min,
        theta=theta,
        jacobian=jacobian,
        beta_fixed=beta,
        starts=starts,
        bounds=bounds,
    )


def fit_both_families(
    prices: Sequence[float],
    pi_bar: float,
    *,
    theta: float = DEFAULT_THETA,
    bins: int = DEFAULT_BINS,
    jacobian: bool = False,
) -> Tuple[FitResult, FitResult]:
    """Figure 3's full per-panel procedure: Pareto first, then exponential
    sharing the Pareto fit's (β, θ).  Returns ``(pareto, exponential)``."""
    pareto = fit_pareto(prices, pi_bar, theta=theta, bins=bins, jacobian=jacobian)
    exponential = fit_exponential(
        prices, pi_bar, beta=pareto.beta, theta=theta, bins=bins, jacobian=jacobian
    )
    return pareto, exponential
