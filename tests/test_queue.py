"""Queue dynamics (eq. 4) and the closed-loop provider simulation."""

import hashlib
import math

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.provider.arrivals import DeterministicArrivals, ParetoArrivals
from repro.provider.equilibrium import price_from_arrivals
from repro.provider.pricing import accepted_bids
from repro.provider.queue import (
    ElasticProviderSimulation,
    ProviderSimulation,
    queue_step,
)

PI_BAR, PI_MIN = 0.35, 0.03


class TestQueueStep:
    def test_eq4(self):
        demand, price, arrivals, theta = 100.0, 0.1, 5.0, 0.02
        n = accepted_bids(demand, price, PI_BAR, PI_MIN)
        expected = demand - theta * n + arrivals
        assert math.isclose(
            queue_step(demand, price, arrivals, theta, PI_BAR, PI_MIN), expected
        )

    def test_result_never_negative(self):
        # Full acceptance, full completion: L - L + 0 = 0.
        assert queue_step(10.0, PI_MIN, 0.0, 1.0, PI_BAR, PI_MIN) >= 0.0

    def test_theta_out_of_range(self):
        with pytest.raises(DistributionError):
            queue_step(1.0, 0.1, 0.0, 1.5, PI_BAR, PI_MIN)

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ValueError):
            queue_step(1.0, 0.1, -1.0, 0.5, PI_BAR, PI_MIN)


class TestProviderSimulation:
    @pytest.fixture
    def sim(self):
        return ProviderSimulation(
            arrivals=ParetoArrivals(alpha=3.0, minimum=0.02),
            beta=0.35, theta=0.02, pi_bar=PI_BAR, pi_min=PI_MIN,
        )

    def test_default_initial_demand_is_mean_over_theta(self, sim):
        expected = ParetoArrivals(alpha=3.0, minimum=0.02).mean() / 0.02
        assert math.isclose(sim.initial_demand, expected)

    def test_run_shapes(self, sim, rng):
        trace = sim.run(500, rng)
        assert trace.n_slots == 500
        for arr in (trace.demand, trace.price, trace.accepted, trace.arrivals):
            assert arr.shape == (500,)

    def test_prices_stay_in_band(self, sim, rng):
        trace = sim.run(2000, rng)
        assert trace.price.min() >= PI_MIN
        assert trace.price.max() <= PI_BAR

    def test_demand_stays_non_negative_and_bounded(self, sim, rng):
        trace = sim.run(3000, rng)
        assert trace.demand.min() >= 0.0
        # Prop. 1: no runaway queue.
        assert trace.demand.max() < 100.0 * sim.initial_demand + 100.0

    def test_reset(self, sim, rng):
        sim.run(10, rng)
        sim.reset(42.0)
        assert sim.demand == 42.0
        sim.reset()
        assert math.isclose(sim.demand, sim.initial_demand)

    def test_constant_arrivals_reach_prop2_equilibrium(self, rng):
        lam = 0.05
        sim = ProviderSimulation(
            arrivals=DeterministicArrivals(lam),
            beta=0.35, theta=0.02, pi_bar=PI_BAR, pi_min=PI_MIN,
            initial_demand=10.0,
        )
        trace = sim.run(5000, rng)
        # Queue settles: L(t+1) == L(t) at the end.
        assert abs(trace.demand[-1] - trace.demand[-2]) < 1e-6
        # And the settled price equals h(λ) (eq. 6), floor-clipped.
        expected = max(PI_MIN, price_from_arrivals(lam, 0.35, 0.02, PI_BAR))
        assert math.isclose(trace.price[-1], expected, rel_tol=1e-6)

    def test_drop_warmup(self, sim, rng):
        trace = sim.run(100, rng)
        trimmed = trace.drop_warmup(40)
        assert trimmed.n_slots == 60
        np.testing.assert_array_equal(trimmed.price, trace.price[40:])
        with pytest.raises(ValueError):
            trace.drop_warmup(-1)

    def test_mean_queue(self, sim, rng):
        trace = sim.run(100, rng)
        assert math.isclose(trace.mean_queue(), trace.demand.mean())

    def test_invalid_construction(self):
        with pytest.raises(DistributionError):
            ProviderSimulation(
                arrivals=DeterministicArrivals(1.0),
                beta=0.0, theta=0.02, pi_bar=PI_BAR, pi_min=PI_MIN,
            )
        with pytest.raises(DistributionError):
            ProviderSimulation(
                arrivals=DeterministicArrivals(1.0),
                beta=0.1, theta=0.0, pi_bar=PI_BAR, pi_min=PI_MIN,
            )

    def test_run_requires_positive_slots(self, sim, rng):
        with pytest.raises(ValueError):
            sim.run(0, rng)


class TestElasticDemand:
    def _sim(self, elasticity):
        from repro.provider.queue import ElasticProviderSimulation

        return ElasticProviderSimulation(
            arrivals=ParetoArrivals(alpha=3.0, minimum=0.05),
            beta=0.35, theta=0.05, pi_bar=PI_BAR, pi_min=PI_MIN,
            elasticity=elasticity,
        )

    def test_zero_elasticity_matches_base_model(self, rng):
        from repro.provider.queue import ElasticProviderSimulation

        base = ProviderSimulation(
            arrivals=ParetoArrivals(alpha=3.0, minimum=0.05),
            beta=0.35, theta=0.05, pi_bar=PI_BAR, pi_min=PI_MIN,
        )
        elastic = self._sim(0.0)
        a = base.run(300, np.random.default_rng(7))
        b = elastic.run(300, np.random.default_rng(7))
        np.testing.assert_allclose(a.price, b.price)

    def test_elastic_demand_lowers_prices(self):
        inelastic = self._sim(0.0).run(3000, np.random.default_rng(9))
        elastic = self._sim(1.0).run(3000, np.random.default_rng(9))
        # Defecting users shrink demand, which lowers the eq. 3 price —
        # footnote 5's effect, made measurable.
        assert elastic.price[500:].mean() <= inelastic.price[500:].mean()
        assert elastic.demand[500:].mean() < inelastic.demand[500:].mean()

    def test_invalid_elasticity(self):
        from repro.errors import DistributionError

        with pytest.raises(DistributionError):
            self._sim(1.5)


class TestStepChecks:
    def test_beta_set_negative_after_construction_raises_at_step(self, r3_model):
        sim = ProviderSimulation(
            arrivals=r3_model.arrivals,
            beta=r3_model.beta,
            theta=r3_model.theta,
            pi_bar=r3_model.pi_bar,
            pi_min=r3_model.lower,
        )
        sim.step(1.0)
        sim.beta = -1.0
        with pytest.raises(ValueError, match="beta"):
            sim.step(1.0)


class TestPinnedTraces:
    @pytest.mark.parametrize(
        ("cls", "extra", "pin"),
        [
            (ProviderSimulation, {}, "2fe925fd2cfdb4f3"),
            (ElasticProviderSimulation, {"elasticity": 0.5}, "28374f177df7d073"),
        ],
        ids=["base", "elastic"],
    )
    def test_run_trace_matches_its_pin(
        self, pinned_numerics, r3_model, cls, extra, pin
    ):
        """4,000 closed-loop slots of the r3.xlarge provider, bit for bit."""
        sim = cls(
            arrivals=r3_model.arrivals,
            beta=r3_model.beta,
            theta=r3_model.theta,
            pi_bar=r3_model.pi_bar,
            pi_min=r3_model.lower,
            **extra,
        )
        trace = sim.run(4000, np.random.default_rng(3))
        digest = hashlib.sha256()
        for series in (trace.demand, trace.price, trace.accepted, trace.arrivals):
            digest.update(series.tobytes())
        assert digest.hexdigest()[:16] == pin
