"""The Figure 1 bidding client: decide, execute, backtest."""

import math

import numpy as np
import pytest

from repro.core.client import BiddingClient
from repro.core.types import (
    BidKind,
    DecisionRequest,
    DecisionResponse,
    JobSpec,
    Strategy,
)
from repro.errors import MarketError
from repro.traces.history import SpotPriceHistory


@pytest.fixture
def client(r3_history):
    return BiddingClient(r3_history, ondemand_price=0.35)


class TestDecide:
    def test_strategies_ranked_as_in_the_paper(self, client, hour_job):
        onetime = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.ONE_TIME)
        )
        persistent = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        pct = client.decide(
            DecisionRequest(
                job=hour_job, strategy=Strategy.PERCENTILE, percentile=90.0
            )
        )
        assert persistent.price < onetime.price
        assert persistent.expected_cost <= onetime.expected_cost + 1e-12
        assert pct.kind is BidKind.PERSISTENT

    def test_decide_returns_a_response_envelope(self, client, hour_job):
        response = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        assert isinstance(response, DecisionResponse)
        assert response.request.job is hour_job
        assert response.cache_tier == "compute"
        assert response.degradation_reason is None
        # The envelope passes decision metrics through unchanged.
        assert response.price == response.decision.price

    def test_unknown_strategy(self, client, hour_job):
        with pytest.raises(ValueError):
            client.decide(DecisionRequest(job=hour_job, strategy="yolo"))

    def test_invalid_ondemand(self, r3_history):
        with pytest.raises(ValueError):
            BiddingClient(r3_history, ondemand_price=0.0)


class TestExecute:
    def test_completed_run_reports_consistent_metrics(self, client, hour_job, r3_future):
        decision = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        outcome = client.execute(decision, hour_job, r3_future)
        assert outcome.completed
        assert outcome.cost > 0
        assert outcome.completion_time >= hour_job.execution_time - 1e-9
        # Running time covers the work plus one recovery per interruption.
        assert math.isclose(
            outcome.running_time,
            hour_job.execution_time + outcome.interruptions * hour_job.recovery_time,
            rel_tol=1e-9,
        )

    def test_slot_length_mismatch_rejected(self, client, hour_job):
        future = SpotPriceHistory(prices=np.full(100, 0.03), slot_length=0.25)
        with pytest.raises(MarketError):
            client.execute(
                client.decide(
                    DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
                ),
                hour_job,
                future,
            )

    def test_onetime_failure_reported(self, client):
        job = JobSpec(execution_time=1.0)
        decision = client.decide(
            DecisionRequest(job=job, strategy=Strategy.ONE_TIME)
        )
        # A future where the price jumps above any sane bid mid-run.
        prices = np.concatenate([
            np.full(6, 0.0315), np.full(30, 0.34), np.full(100, 0.0315),
        ])
        future = SpotPriceHistory(prices=prices)
        outcome = client.execute(decision, job, future)
        assert not outcome.completed
        assert outcome.cost > 0  # paid for the slots it ran

    def test_fallback_ondemand_adds_rerun_cost(self, client):
        job = JobSpec(execution_time=1.0)
        decision = client.decide(
            DecisionRequest(job=job, strategy=Strategy.ONE_TIME)
        )
        prices = np.concatenate([
            np.full(6, 0.0315), np.full(30, 0.34), np.full(100, 0.0315),
        ])
        future = SpotPriceHistory(prices=prices)
        plain = client.execute(decision, job, future)
        padded = client.execute(decision, job, future, fallback_ondemand=True)
        assert math.isclose(padded.cost, plain.cost + 0.35 * 1.0)

    def test_start_slot_offsets_execution(self, client, hour_job, r3_future):
        decision = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        a = client.execute(decision, hour_job, r3_future, start_slot=0)
        b = client.execute(decision, hour_job, r3_future, start_slot=100)
        # Different price windows generally give different costs; at the
        # very least both must complete on a long quiet trace.
        assert a.completed and b.completed


class TestBacktest:
    def test_report_pairs_decision_and_outcome(self, client, hour_job, r3_future):
        report = client.backtest(hour_job, r3_future, strategy=Strategy.PERSISTENT)
        assert report.decision.kind is BidKind.PERSISTENT
        assert report.outcome.bid_price == report.decision.price
        assert math.isfinite(report.cost_prediction_error)

    def test_prediction_close_on_iid_future(self, client, hour_job, rng):
        # On an i.i.d. future drawn from the same marginal, realized cost
        # should be near the model's expectation (the paper's "analytical
        # predictions closely match the experimental results").
        from repro.traces.generator import generate_equilibrium_history

        costs = []
        decision = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        for _ in range(25):
            future = generate_equilibrium_history("r3.xlarge", days=4, rng=rng)
            outcome = client.execute(decision, hour_job, future)
            if outcome.completed:
                costs.append(outcome.cost)
        mean_cost = float(np.mean(costs))
        assert abs(mean_cost - decision.expected_cost) / decision.expected_cost < 0.15

    def test_ondemand_cost(self, client, hour_job):
        assert math.isclose(client.ondemand_cost(hour_job), 0.35)


class TestDegradedDecision:
    """Graceful degradation: infeasible bids fall back to on-demand."""

    def _infeasible_job(self):
        # Persistent bids need t_s > t_r; this violates eq. 14's premise.
        return JobSpec(execution_time=0.5, recovery_time=1.0)

    def test_without_degrade_flag_the_error_propagates(self, client):
        from repro.errors import InfeasibleBidError

        with pytest.raises(InfeasibleBidError):
            client.decide(
                DecisionRequest(
                    job=self._infeasible_job(), strategy=Strategy.PERSISTENT
                )
            )

    def test_degrade_returns_marked_ondemand_fallback(self, client):
        from repro.core.types import DegradedDecision

        job = self._infeasible_job()
        response = client.decide(
            DecisionRequest(job=job, strategy=Strategy.PERSISTENT, degrade=True)
        )
        decision = response.decision
        assert isinstance(decision, DegradedDecision)
        assert decision.degraded is True
        assert response.degradation_reason == decision.reason
        assert decision.price == 0.35
        assert math.isclose(
            decision.expected_cost, client.ondemand_cost(job)
        )
        assert decision.acceptance_probability == 1.0
        assert decision.reason  # carries the optimizer's complaint

    def test_feasible_decisions_are_not_degraded(self, client, hour_job):
        response = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        assert response.degraded is False

    def test_degraded_decision_is_executable(self, client, r3_future):
        job = self._infeasible_job()
        response = client.decide(
            DecisionRequest(job=job, strategy=Strategy.PERSISTENT, degrade=True)
        )
        outcome = client.execute(response, job, r3_future)
        assert outcome.completed


class TestLegacyKwargsShim:
    """The pre-request ``decide(job, strategy=...)`` form is rejected."""

    def test_kwargs_form_warns_and_returns_a_bare_decision(self, client, hour_job):
        # The kwargs form raises instead of warning; the request form is the
        # one way to a decision, wrapped in a response envelope.
        with pytest.raises(TypeError):
            client.decide(hour_job, strategy=Strategy.PERSISTENT)
        response = client.decide(
            DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        )
        assert response.decision.kind is BidKind.PERSISTENT

    def test_kwargs_form_defaults_to_persistent(self, client, hour_job):
        # A bare job is rejected; a request without a strategy defaults to
        # persistent, as the kwargs form did.
        with pytest.raises(TypeError, match="DecisionRequest"):
            client.decide(hour_job)
        response = client.decide(DecisionRequest(job=hour_job))
        assert response.decision.kind is BidKind.PERSISTENT

    def test_mixing_request_and_kwargs_is_rejected(self, client, hour_job):
        request = DecisionRequest(job=hour_job, strategy=Strategy.PERSISTENT)
        with pytest.raises(TypeError):
            client.decide(request, strategy=Strategy.ONE_TIME)
