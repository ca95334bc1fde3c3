"""Synthetic trace generators: support, marginals, temporal texture."""

import hashlib
import math

import numpy as np
import pytest

from repro.analysis.distributions import ks_two_sample
from repro.errors import TraceError
from repro.extensions.correlated import autocorrelation
from repro.traces.catalog import get_instance_type
from repro.traces.generator import (
    generate_correlated_history,
    generate_equilibrium_history,
    generate_provider_history,
    generate_regime_shift_history,
    generate_renewal_history,
    market_model_for,
)


class TestMarketModelFor:
    def test_floor_and_ceiling_from_catalog(self):
        itype = get_instance_type("r3.xlarge")
        model = market_model_for(itype)
        assert model.lower == itype.market.pi_min
        assert math.isclose(model.upper, itype.on_demand_price / 2)
        assert math.isclose(model.floor_mass, itype.market.floor_mass, rel_tol=1e-9)

    def test_accepts_name_or_instance(self):
        by_name = market_model_for("r3.xlarge")
        by_obj = market_model_for(get_instance_type("r3.xlarge"))
        assert by_name.lower == by_obj.lower


class TestEquilibriumGenerator:
    def test_shape_and_support(self, rng):
        history = generate_equilibrium_history("r3.xlarge", days=10, rng=rng)
        assert history.n_slots == 10 * 288
        assert history.instance_type == "r3.xlarge"
        model = market_model_for("r3.xlarge")
        assert history.prices.min() >= model.lower - 1e-12
        assert history.prices.max() <= model.upper

    def test_floor_fraction_matches_atom(self, rng):
        history = generate_equilibrium_history("r3.xlarge", days=30, rng=rng)
        model = market_model_for("r3.xlarge")
        frac = np.mean(history.prices <= model.lower + 1e-12)
        assert abs(frac - model.floor_mass) < 0.02

    def test_deterministic_under_seed(self):
        a = generate_equilibrium_history(
            "r3.xlarge", days=2, rng=np.random.default_rng(5)
        )
        b = generate_equilibrium_history(
            "r3.xlarge", days=2, rng=np.random.default_rng(5)
        )
        np.testing.assert_array_equal(a.prices, b.prices)

    def test_invalid_days(self, rng):
        with pytest.raises(TraceError):
            generate_equilibrium_history("r3.xlarge", days=0, rng=rng)


class TestRenewalGenerator:
    def test_marginal_matches_equilibrium(self, rng):
        # Same marginal distribution, different temporal texture: a
        # two-sample K-S between long traces should not reject.
        iid = generate_equilibrium_history("r3.xlarge", days=40, rng=rng)
        sticky = generate_renewal_history("r3.xlarge", days=40, rng=rng)
        result = ks_two_sample(iid.prices, sticky.prices)
        assert result.statistic < 0.05

    def test_stickier_than_iid(self, rng):
        iid = generate_equilibrium_history("r3.xlarge", days=20, rng=rng)
        sticky = generate_renewal_history("r3.xlarge", days=20, rng=rng)
        acf_iid = autocorrelation(iid.prices, max_lag=1)[1]
        acf_sticky = autocorrelation(sticky.prices, max_lag=1)[1]
        assert acf_sticky > 0.5 > abs(acf_iid)

    def test_episode_lengths_steer_texture(self, rng):
        slow = generate_renewal_history(
            "r3.xlarge", days=20, rng=rng,
            floor_episode_hours=48.0, tail_episode_hours=4.0,
        )
        fast = generate_renewal_history(
            "r3.xlarge", days=20, rng=rng,
            floor_episode_hours=1.0, tail_episode_hours=0.5,
        )
        changes_slow = np.mean(np.diff(slow.prices) != 0.0)
        changes_fast = np.mean(np.diff(fast.prices) != 0.0)
        assert changes_fast > changes_slow

    def test_invalid_episode_length(self, rng):
        with pytest.raises(TraceError):
            generate_renewal_history(
                "r3.xlarge", days=2, rng=rng, floor_episode_hours=0.0
            )


class TestCorrelatedGenerator:
    def test_lag1_autocorrelation_near_rho(self, rng):
        history = generate_correlated_history(
            "r3.xlarge", days=20, rng=rng, correlation=0.9
        )
        acf1 = autocorrelation(history.prices, max_lag=1)[1]
        # Copula correlation maps monotonically (not identically) to the
        # price ACF; it must land in the strongly-correlated regime.
        assert 0.6 < acf1 < 0.99

    def test_marginal_preserved(self, rng):
        iid = generate_equilibrium_history("r3.xlarge", days=40, rng=rng)
        corr = generate_correlated_history(
            "r3.xlarge", days=40, rng=rng, correlation=0.8
        )
        assert ks_two_sample(iid.prices, corr.prices).statistic < 0.05

    def test_invalid_rho(self, rng):
        with pytest.raises(TraceError):
            generate_correlated_history(
                "r3.xlarge", days=2, rng=rng, correlation=1.0
            )


class TestProviderGenerator:
    def test_prices_in_band_and_warmup_removed(self, rng):
        history = generate_provider_history(
            "r3.xlarge", days=5, rng=rng, warmup_slots=100
        )
        itype = get_instance_type("r3.xlarge")
        assert history.n_slots == 5 * 288
        assert history.prices.min() >= itype.market.pi_min
        assert history.prices.max() <= itype.on_demand_price

    def test_negative_warmup_rejected(self, rng):
        with pytest.raises(TraceError):
            generate_provider_history(
                "r3.xlarge", days=1, rng=rng, warmup_slots=-1
            )


class TestNonDefaultSlotLength:
    def test_generators_respect_slot_length(self, rng):
        for fn in (generate_equilibrium_history, generate_renewal_history):
            history = fn("r3.xlarge", days=2, rng=rng, slot_length=0.25)
            assert history.slot_length == 0.25
            assert history.n_slots == int(2 * 24 / 0.25)


class TestPinnedRenewal:
    @pytest.mark.parametrize(
        ("days", "floor_hours", "tail_hours", "pin"),
        [
            (8.0, 36.0, 2.5, "da21fb9a66eaebb1"),  # FULL_CONFIG futures
            (3.0, 0.4, 0.5, "5cb817a864fbf423"),  # Fig. 4 candidate days
        ],
        ids=["full-config", "fig4"],
    )
    def test_renewal_traces_match_their_pin(
        self, pinned_numerics, days, floor_hours, tail_hours, pin
    ):
        """The episode loop's draw order and arithmetic, bit for bit."""
        digest = hashlib.sha256()
        for name in ("r3.xlarge", "c3.4xlarge", "m1.xlarge"):
            for seed in range(20):
                trace = generate_renewal_history(
                    name,
                    days=days,
                    rng=np.random.default_rng(seed),
                    floor_episode_hours=floor_hours,
                    tail_episode_hours=tail_hours,
                )
                digest.update(trace.prices.tobytes())
        assert digest.hexdigest()[:16] == pin

    @pytest.mark.parametrize(
        ("days", "floor_hours", "tail_hours", "pin"),
        [
            (8.0, 36.0, 2.5, "4ec4c80db2f01bb1"),  # FULL_CONFIG futures
            (3.0, 0.4, 0.5, "3da274a135b6e5b1"),  # Fig. 4 candidate days
        ],
        ids=["full-config", "fig4"],
    )
    def test_the_generator_is_left_where_its_pin_says(
        self, pinned_numerics, days, floor_hours, tail_hours, pin
    ):
        """The double drawn right after a trace: a loop that draws the
        right prices but consumes a different number of draws moves it."""
        digest = hashlib.sha256()
        for name in ("r3.xlarge", "c3.4xlarge", "m1.xlarge"):
            for seed in range(20):
                rng = np.random.default_rng(seed)
                generate_renewal_history(
                    name,
                    days=days,
                    rng=rng,
                    floor_episode_hours=floor_hours,
                    tail_episode_hours=tail_hours,
                )
                digest.update(np.float64(rng.random()).tobytes())
        assert digest.hexdigest()[:16] == pin

    def test_regime_shift_traces_match_their_pin(self, pinned_numerics):
        """Two renewal draws chained on one generator: the second regime
        starts where the first left the stream."""
        digest = hashlib.sha256()
        for name in ("r3.xlarge", "c3.4xlarge", "m1.xlarge"):
            for seed in range(20):
                trace = generate_regime_shift_history(
                    name, days=6.0, rng=np.random.default_rng(seed), shift_hour=60.0
                )
                digest.update(trace.prices.tobytes())
        assert digest.hexdigest()[:16] == "6d1596003deb537c"
