"""Section 4.3: least-squares fitting of the spot-price PDF."""

import hashlib
import math
import struct

import numpy as np
import pytest

from repro.errors import FittingError
from repro.experiments.common import FULL_CONFIG, history_trace
from repro.provider.fitting import (
    fit_both_families,
    fit_exponential,
    fit_pareto,
    histogram_pdf,
    model_density,
)
from repro.traces.catalog import FIG3_TYPES, get_instance_type
from repro.traces.generator import generate_equilibrium_history, market_model_for


class TestHistogram:
    def test_density_integrates_to_one(self, rng):
        prices = rng.exponential(0.01, size=5000) + 0.03
        hist = histogram_pdf(prices, bins=30)
        assert math.isclose(float((hist.density * hist.widths).sum()), 1.0)
        assert hist.centers.shape == (30,)
        assert math.isclose(float(hist.masses.sum()), 1.0)

    def test_invalid_inputs(self):
        with pytest.raises(FittingError):
            histogram_pdf([], bins=10)
        with pytest.raises(FittingError):
            histogram_pdf([0.1, 0.2], bins=1)


class TestModelDensity:
    def test_mass_sums_to_one(self):
        edges = np.linspace(0.0315, 0.17, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        curve = model_density(
            centers, widths, family="pareto",
            beta=0.35, theta=0.02, shape=3.0,
            pi_bar=0.35, pi_min=0.0315, floor_mass=0.6,
        )
        # Atom mass plus (trapezoid-normalized) continuum ≈ 1.  The
        # normalization is a fitting surrogate (trapezoid vs rectangle),
        # so allow a coarse-bin discrepancy.
        assert math.isclose(float((curve * widths).sum()), 1.0, rel_tol=0.12)

    def test_unknown_family_rejected(self):
        with pytest.raises(FittingError):
            model_density(
                np.asarray([0.05]), np.asarray([0.01]), family="gamma",
                beta=0.35, theta=0.02, shape=3.0, pi_bar=0.35, pi_min=0.03,
            )

    def test_degenerate_beta_returns_inf(self):
        curve = model_density(
            np.asarray([0.05]), np.asarray([0.01]), family="pareto",
            beta=0.01, theta=0.02, shape=3.0, pi_bar=0.35, pi_min=0.03,
        )
        assert np.isinf(curve).all()


class TestFits:
    @pytest.fixture(scope="class")
    def history(self):
        rng = np.random.default_rng(77)
        return generate_equilibrium_history("r3.xlarge", days=60, rng=rng)

    def test_pareto_fit_quality(self, history):
        fit = fit_pareto(history.prices, 0.35)
        # The paper reports MSE below 1e-6 on the per-bin-mass scale.
        assert fit.mse_mass < 5e-5
        assert fit.family == "pareto"
        assert fit.alpha is not None and fit.eta is None

    def test_pareto_recovers_floor_mass(self, history):
        fit = fit_pareto(history.prices, 0.35)
        true_q = market_model_for("r3.xlarge").floor_mass
        assert abs(fit.floor_mass - true_q) < 0.08

    def test_exponential_fit_with_shared_beta(self, history):
        pareto = fit_pareto(history.prices, 0.35)
        expo = fit_exponential(history.prices, 0.35, beta=pareto.beta)
        assert expo.family == "exponential"
        assert expo.beta == pareto.beta  # (β, θ) shared per the paper
        assert expo.mse_mass < 5e-4

    def test_both_families_helper(self, history):
        pareto, expo = fit_both_families(history.prices, 0.35)
        assert pareto.beta == expo.beta
        assert pareto.theta == expo.theta

    def test_fitted_model_roundtrip(self, history):
        fit = fit_pareto(history.prices, 0.35)
        model = fit.model()
        # The fitted model must reproduce the empirical CDF decently in
        # the tail (quantiles inside the floor atom all map to the floor
        # price, where the CDF necessarily jumps to the atom mass).
        empirical = np.sort(history.prices)
        for q in (0.8, 0.9, 0.95):
            emp = float(np.quantile(empirical, q))
            assert abs(model.cdf(emp) - q) < 0.12

    def test_exact_convention_fit(self, history):
        fit = fit_pareto(history.prices, 0.35, jacobian=True)
        assert fit.mse_mass < 5e-5

    def test_floor_at_or_above_half_ondemand_rejected(self):
        prices = np.full(100, 0.2)
        with pytest.raises(FittingError):
            fit_pareto(prices, 0.35)


class TestPinnedFits:
    def test_fig3_panel_fits_match_their_pin(self, pinned_numerics):
        """Both families in both conventions on Fig. 3 panel (a)'s
        history, bit for bit: the tables print two or three digits."""
        itype = get_instance_type(FIG3_TYPES[0])
        history = history_trace(itype, FULL_CONFIG, 3)
        digest = hashlib.sha256()
        for jacobian in (False, True):
            for fit in fit_both_families(
                history.prices,
                itype.on_demand_price,
                theta=itype.market.theta,
                jacobian=jacobian,
            ):
                for name in (
                    "beta", "theta", "alpha", "eta", "pi_bar", "pi_min",
                    "floor_mass", "mse_density", "mse_mass",
                ):
                    value = getattr(fit, name)
                    digest.update(b"-" if value is None else struct.pack("<d", value))
        assert digest.hexdigest()[:16] == "cff7194ec70c0cfa"
