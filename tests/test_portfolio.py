"""Portfolio and CVaR bid selection, end to end.

The two workloads ISSUE the paper's cost model supports but never spells
out: the on-demand/spot mixture (``Strategy.PORTFOLIO``) and the
tail-averse realized-cost optimizer (``Strategy.CVAR``).  Tested from
the kernel-backed selectors up through ``BiddingClient.respond``, the
serve tables/service fallback, the wire protocol, and the CLI.
"""

import math

import numpy as np
import pytest

from repro.core.client import BiddingClient
from repro.core.distributions import (
    EmpiricalPriceDistribution,
    UniformPriceDistribution,
)
from repro.core.types import (
    BidKind,
    CvarDecision,
    DecisionRequest,
    JobSpec,
    PortfolioDecision,
    Strategy,
)
from repro.errors import InfeasibleBidError, PlanError
from repro.extensions.portfolio import (
    cvar_bid,
    cvar_from_costs,
    optimal_portfolio_bid,
    portfolio_frontier,
)
from repro.serve.protocol import (
    decision_from_wire,
    decision_to_wire,
    request_from_wire,
    request_to_wire,
)
from repro.traces.history import SpotPriceHistory

ONDEMAND = 0.35


@pytest.fixture
def history(rng):
    prices = np.full(600, 0.0315)
    spikes = rng.integers(0, prices.size, size=60)
    prices[spikes] = rng.uniform(0.05, 0.3, size=spikes.size)
    return SpotPriceHistory(prices=prices, instance_type="r3.xlarge")


@pytest.fixture
def job():
    return JobSpec(execution_time=2.0, recovery_time=0.01)


class TestPortfolioFrontier:
    def test_surface_shape_and_feasibility(self, empirical_dist, job):
        surface = portfolio_frontier(
            empirical_dist, job, ondemand_price=ONDEMAND
        )
        n_w = surface["fractions"].size
        n_p = surface["candidates"].size
        assert surface["cost"].shape == (n_w, n_p)
        assert surface["variance"].shape == (n_w, n_p)
        # The all-on-demand row is deterministic: flat cost, zero variance.
        assert (surface["variance"][-1] == 0.0).all()
        assert np.allclose(surface["cost"][-1], ONDEMAND * job.execution_time)

    def test_rejects_bad_fraction_grids(self, empirical_dist, job):
        with pytest.raises(PlanError, match="non-empty"):
            portfolio_frontier(
                empirical_dist, job, ondemand_price=ONDEMAND,
                ondemand_fractions=[],
            )
        with pytest.raises(PlanError, match=r"\[0, 1\]"):
            portfolio_frontier(
                empirical_dist, job, ondemand_price=ONDEMAND,
                ondemand_fractions=[0.5, 1.5],
            )


class TestOptimalPortfolioBid:
    def test_uncapped_prefers_cheap_spot(self, empirical_dist, job):
        decision = optimal_portfolio_bid(
            empirical_dist, job, ondemand_price=ONDEMAND
        )
        assert isinstance(decision, PortfolioDecision)
        assert decision.kind is BidKind.PERSISTENT
        # Spot is ~10x cheaper than on-demand here; the optimizer must
        # put essentially everything on the spot market.
        assert decision.spot_fraction > 0.5
        assert decision.expected_cost < ONDEMAND * job.execution_time

    def test_zero_variance_cap_degenerates_to_ondemand(self, job):
        # A continuous distribution has positive conditional variance at
        # every feasible bid, so a cap of zero leaves only the pure
        # on-demand column (an empirical floor atom would dodge this by
        # bidding exactly the floor).
        dist = UniformPriceDistribution(0.02, 0.10)
        decision = optimal_portfolio_bid(
            dist, job, ondemand_price=ONDEMAND, max_variance=0.0
        )
        assert decision.spot_fraction == 0.0
        assert decision.price == ONDEMAND
        assert decision.price_variance == 0.0
        assert decision.acceptance_probability == 1.0
        assert decision.expected_cost == ONDEMAND * job.execution_time

    def test_cap_tightens_monotonically(self, empirical_dist, job):
        loose = optimal_portfolio_bid(
            empirical_dist, job, ondemand_price=ONDEMAND
        )
        tight = optimal_portfolio_bid(
            empirical_dist, job, ondemand_price=ONDEMAND,
            max_variance=loose.price_variance / 4.0,
        )
        assert tight.price_variance <= loose.price_variance
        assert tight.expected_cost >= loose.expected_cost

    def test_tie_break_prefers_smallest_spot_exposure(self, job):
        # A one-atom distribution makes many (w, p) cells tie on cost;
        # the scan must keep the first (lowest fraction index) row.
        dist = EmpiricalPriceDistribution([0.1, 0.1, 0.1])
        decision = optimal_portfolio_bid(
            dist, job, ondemand_price=ONDEMAND,
            ondemand_fractions=[0.0, 0.25, 0.5],
        )
        assert decision.spot_fraction == 1.0

    def test_invalid_cap_rejected(self, empirical_dist, job):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(PlanError, match="max_variance"):
                optimal_portfolio_bid(
                    empirical_dist, job,
                    ondemand_price=ONDEMAND, max_variance=bad,
                )

    def test_infeasible_when_no_cell_qualifies(self, empirical_dist):
        # Every spot leg is shorter than the recovery time and the
        # fraction grid excludes the pure on-demand column.
        job = JobSpec(execution_time=1.0, recovery_time=0.9, slot_length=0.5)
        with pytest.raises(InfeasibleBidError, match="no on-demand/spot split"):
            optimal_portfolio_bid(
                empirical_dist, job, ondemand_price=ONDEMAND,
                ondemand_fractions=[0.2, 0.5],
            )


class TestCvarFromCosts:
    def test_alpha_near_one_takes_the_max(self):
        assert cvar_from_costs([1.0, 5.0, 3.0], 0.999) == 5.0

    def test_small_alpha_averages_wide_tail(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert cvar_from_costs(values, 0.5) == pytest.approx((3.0 + 4.0) / 2.0)

    def test_single_observation(self):
        assert cvar_from_costs([7.0], 0.95) == 7.0

    def test_invalid_inputs(self):
        with pytest.raises(PlanError, match="alpha"):
            cvar_from_costs([1.0], 1.0)
        with pytest.raises(PlanError, match="alpha"):
            cvar_from_costs([1.0], 0.0)
        with pytest.raises(PlanError, match="non-empty"):
            cvar_from_costs([], 0.95)


class TestCvarBid:
    def test_selects_a_completing_bid(self, history, job):
        decision = cvar_bid(history, job, ondemand_price=ONDEMAND)
        assert isinstance(decision, CvarDecision)
        assert decision.kind is BidKind.PERSISTENT
        assert decision.price >= history.prices.min()
        assert decision.cvar >= decision.expected_cost
        assert decision.n_windows >= 1
        assert 0.0 < decision.acceptance_probability <= 1.0

    def test_cvar_dominates_mean_as_alpha_grows(self, history, job):
        mild = cvar_bid(history, job, alpha=0.5, ondemand_price=ONDEMAND)
        harsh = cvar_bid(history, job, alpha=0.99, ondemand_price=ONDEMAND)
        assert harsh.cvar >= mild.cvar

    def test_explicit_bid_grid_and_windows(self, history, job):
        decision = cvar_bid(
            history, job, bids=[0.05, 0.4], n_windows=4,
            ondemand_price=ONDEMAND,
        )
        assert decision.price in (0.05, 0.4)
        assert decision.n_windows == 4

    def test_stranded_windows_without_fallback_raise(self, history):
        # A job longer than any window can finish at a bid below the
        # floor: nothing completes, and with no on-demand fallback the
        # tail cost is infinite for every candidate.
        job = JobSpec(execution_time=1000.0, recovery_time=0.01)
        with pytest.raises(InfeasibleBidError, match="ondemand_price"):
            cvar_bid(history, job, bids=[0.001])

    def test_invalid_parameters(self, history, job):
        with pytest.raises(PlanError, match="alpha"):
            cvar_bid(history, job, alpha=1.5)
        with pytest.raises(PlanError, match="n_windows"):
            cvar_bid(history, job, n_windows=0)
        with pytest.raises(PlanError, match="bids"):
            cvar_bid(history, job, bids=[])


class TestDecisionRequestFields:
    def test_strategy_aliases(self, job):
        assert Strategy("portfolio") is Strategy.PORTFOLIO
        assert Strategy("cvar") is Strategy.CVAR

    def test_only_paper_strategies_are_sweepable(self):
        assert Strategy.ONE_TIME.sweepable
        assert Strategy.PERSISTENT.sweepable
        assert not Strategy.PORTFOLIO.sweepable
        assert not Strategy.CVAR.sweepable

    def test_max_variance_validation(self, job):
        DecisionRequest(job=job, max_variance=0.5)  # fine
        with pytest.raises(ValueError, match="max_variance"):
            DecisionRequest(job=job, max_variance=-0.5)
        with pytest.raises(ValueError, match="max_variance"):
            DecisionRequest(job=job, max_variance=math.inf)

    def test_cvar_alpha_validation(self, job):
        DecisionRequest(job=job, cvar_alpha=0.5)  # fine
        with pytest.raises(ValueError, match="cvar_alpha"):
            DecisionRequest(job=job, cvar_alpha=0.0)
        with pytest.raises(ValueError, match="cvar_alpha"):
            DecisionRequest(job=job, cvar_alpha=1.0)


class TestRunSweepRejectsSelectionStrategies:
    @pytest.mark.parametrize("strategy", [Strategy.PORTFOLIO, Strategy.CVAR])
    def test_rejected_with_guidance(self, history, job, strategy):
        from repro.sweep.engine import run_sweep

        with pytest.raises(ValueError, match="selects a bid"):
            run_sweep([history], [0.05], job, strategy=strategy)


class TestClientRouting:
    def test_portfolio_request(self, history, job):
        client = BiddingClient(history, ondemand_price=ONDEMAND)
        response = client.respond(
            DecisionRequest(job=job, strategy=Strategy.PORTFOLIO)
        )
        assert isinstance(response.decision, PortfolioDecision)
        assert response.strategy is Strategy.PORTFOLIO

    def test_portfolio_request_honors_cap(self, history, job):
        client = BiddingClient(history, ondemand_price=ONDEMAND)
        response = client.respond(
            DecisionRequest(
                job=job, strategy=Strategy.PORTFOLIO, max_variance=0.0
            )
        )
        assert response.decision.spot_fraction == 0.0
        assert response.price == ONDEMAND

    def test_cvar_request(self, history, job):
        client = BiddingClient(history, ondemand_price=ONDEMAND)
        response = client.respond(
            DecisionRequest(job=job, strategy=Strategy.CVAR, cvar_alpha=0.9)
        )
        assert isinstance(response.decision, CvarDecision)
        assert response.decision.alpha == 0.9


class TestServePath:
    def test_table_set_computes_portfolio_and_cvar(self, history):
        from repro.serve.tables import TABLED_STRATEGIES, build_table_set

        assert Strategy.PORTFOLIO not in TABLED_STRATEGIES
        assert Strategy.CVAR not in TABLED_STRATEGIES
        tables = build_table_set(history, ondemand_price=ONDEMAND)
        job = JobSpec(
            execution_time=2.0, recovery_time=0.01,
            slot_length=history.slot_length,
        )
        for strategy, cls in (
            (Strategy.PORTFOLIO, PortfolioDecision),
            (Strategy.CVAR, CvarDecision),
        ):
            response = tables.decide(
                DecisionRequest(job=job, strategy=strategy)
            )
            assert response.cache_tier == "compute"
            assert isinstance(response.decision, cls)
            assert response.table_version == tables.version

    def test_service_answers_and_caches_portfolio(self, history):
        from repro.market.price_sources import TracePriceSource
        from repro.serve.cache import DecisionCache
        from repro.serve.ingest import MarketState
        from repro.serve.service import BidService
        from repro.serve.tables import TableGrid

        state = MarketState(
            TracePriceSource(history),
            initial_history=history,
            ondemand_price=ONDEMAND,
            grid=TableGrid(
                execution_times=(1.0, 2.0), recovery_times=(0.0, 0.01)
            ),
        )
        service = BidService(state, cache=DecisionCache(capacity=8))
        request = DecisionRequest(
            job=JobSpec(
                execution_time=2.0, recovery_time=0.01,
                slot_length=history.slot_length,
            ),
            strategy=Strategy.PORTFOLIO,
        )
        first = service.handle(request)
        assert first.cache_tier == "compute"
        assert isinstance(first.decision, PortfolioDecision)
        second = service.handle(request)
        assert second.cache_tier == "memory"
        assert second.decision == first.decision


class TestWireProtocol:
    def test_request_round_trips_new_fields(self, job):
        request = DecisionRequest(
            job=job, strategy=Strategy.PORTFOLIO,
            max_variance=0.125, cvar_alpha=0.9,
        )
        decoded = request_from_wire(request_to_wire(request))
        assert decoded == request
        assert decoded.max_variance == 0.125
        assert decoded.cvar_alpha == 0.9

    def test_request_none_max_variance_survives(self, job):
        request = DecisionRequest(job=job, strategy=Strategy.CVAR)
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.max_variance is None

    def test_portfolio_decision_round_trips(self):
        decision = PortfolioDecision(
            price=0.08, kind=BidKind.PERSISTENT, expected_cost=0.2,
            expected_completion_time=2.2, expected_running_time=2.05,
            expected_interruptions=0.3, acceptance_probability=0.9,
            spot_fraction=0.75, price_variance=0.004,
        )
        wire = decision_to_wire(decision)
        assert wire["portfolio"] == {
            "spot_fraction": 0.75, "price_variance": 0.004,
        }
        decoded = decision_from_wire(wire)
        assert isinstance(decoded, PortfolioDecision)
        assert decoded == decision

    def test_cvar_decision_round_trips(self):
        decision = CvarDecision(
            price=0.06, kind=BidKind.PERSISTENT, expected_cost=0.15,
            expected_completion_time=2.1, expected_running_time=2.0,
            expected_interruptions=0.1, acceptance_probability=0.95,
            alpha=0.97, cvar=0.31, n_windows=12,
        )
        wire = decision_to_wire(decision)
        assert wire["cvar"] == {"alpha": 0.97, "cvar": 0.31, "n_windows": 12}
        decoded = decision_from_wire(wire)
        assert isinstance(decoded, CvarDecision)
        assert decoded == decision


class TestCli:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "history.csv"
        assert main(["trace", "r3.xlarge", "--days", "10", "--seed", "3",
                     "--out", str(path)]) == 0
        return path

    def test_bid_portfolio(self, trace_file, capsys):
        from repro.cli import main

        assert main(["bid", str(trace_file), "--strategy", "portfolio",
                     "--max-variance", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "spot fraction" in out

    def test_bid_cvar(self, trace_file, capsys):
        from repro.cli import main

        assert main(["bid", str(trace_file), "--strategy", "cvar",
                     "--cvar-alpha", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "cvar" in out
        assert "CVaR" in out

    def test_sweep_cvar_selects_then_sweeps(
        self, trace_file, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(["sweep", str(trace_file), str(trace_file),
                     "--strategy", "cvar"]) == 0
        out = capsys.readouterr().out
        assert "CVaR" in out

    def test_sweep_portfolio(self, trace_file, capsys):
        from repro.cli import main

        assert main(["sweep", str(trace_file), str(trace_file),
                     "--strategy", "portfolio"]) == 0
        out = capsys.readouterr().out
        assert "spot fraction" in out


class TestDistributionCacheHoisting:
    def test_portfolio_reuses_cached_distribution(self, history, job):
        from repro.core.distcache import cached_distribution

        first = cached_distribution(history)
        second = cached_distribution(history)
        assert first is second  # per-candidate fits are hoisted

    def test_uniform_dist_works_without_array_fastpaths(self, job):
        # UniformPriceDistribution lacks *_array methods: the kernels
        # must fall back to scalar loops and still agree across lanes.
        dist = UniformPriceDistribution(0.02, 0.10)
        decision = optimal_portfolio_bid(dist, job, ondemand_price=ONDEMAND)
        assert isinstance(decision, PortfolioDecision)
        assert decision.expected_cost < ONDEMAND * job.execution_time
