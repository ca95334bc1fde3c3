"""The SpotMarket simulator: submission, stepping, outcomes, events."""

import math

import numpy as np
import pytest

from repro.core.types import BidKind
from repro.errors import MarketError
from repro.market.events import EventKind
from repro.market.price_sources import IIDPriceSource, TracePriceSource
from repro.market.billing import HourlyBilling
from repro.market.requests import RequestState
from repro.market.simulator import SpotMarket
from repro.traces.history import SpotPriceHistory

TK = 1.0 / 12.0


def flat_market(price=0.03, slots=200):
    history = SpotPriceHistory(prices=np.full(slots, price))
    return SpotMarket(TracePriceSource(history))


class TestSubmitAndStep:
    def test_submit_returns_increasing_ids(self):
        market = flat_market()
        a = market.submit(bid_price=0.05, work=1.0, kind=BidKind.PERSISTENT)
        b = market.submit(bid_price=0.05, work=1.0, kind=BidKind.PERSISTENT)
        assert b == a + 1

    def test_step_returns_the_price(self):
        market = flat_market(price=0.042)
        assert market.step() == 0.042
        assert market.current_price == 0.042
        assert market.slot == 1
        assert math.isclose(market.now_hours, TK)

    def test_run_until_done_completes_everything(self):
        market = flat_market()
        rid = market.submit(bid_price=0.05, work=0.5, kind=BidKind.PERSISTENT)
        steps = market.run_until_done()
        assert market.request_state(rid) is RequestState.COMPLETED
        assert steps == 6  # half an hour of five-minute slots

    def test_outcome_fields(self):
        market = flat_market(price=0.03)
        rid = market.submit(
            bid_price=0.05, work=0.5, kind=BidKind.PERSISTENT, label="job-a"
        )
        market.run_until_done()
        outcome = market.outcome(rid)
        assert outcome.completed
        assert outcome.label == "job-a"
        assert math.isclose(outcome.cost, 0.03 * 0.5)
        assert math.isclose(outcome.completion_time, 0.5)
        assert outcome.idle_time == 0.0
        assert outcome.interruptions == 0
        stats = outcome.to_stats()
        assert stats.completed
        assert math.isclose(stats.charged_price_per_hour, 0.03)

    def test_charged_price_is_zero_when_the_job_never_ran(self):
        market = flat_market(price=0.03)
        rid = market.submit(bid_price=0.02, work=1.0, kind=BidKind.PERSISTENT)
        for _ in range(5):
            market.step()
        market.cancel(rid)
        stats = market.outcome(rid).to_stats()
        assert not stats.completed
        assert stats.running_time == 0.0
        assert stats.charged_price_per_hour == 0.0

    def test_outcomes_in_submission_order(self):
        market = flat_market()
        ids = [
            market.submit(bid_price=0.05, work=0.25, kind=BidKind.PERSISTENT)
            for _ in range(3)
        ]
        market.run_until_done()
        assert [o.request_id for o in market.outcomes()] == ids

    def test_requests_submitted_mid_simulation(self):
        market = flat_market()
        market.step()
        rid = market.submit(bid_price=0.05, work=TK, kind=BidKind.PERSISTENT)
        market.run_until_done()
        outcome = market.outcome(rid)
        assert outcome.submitted_slot == 1
        assert math.isclose(outcome.completion_time, TK)


class TestErrorsAndGuards:
    def test_unknown_request_id(self):
        market = flat_market()
        with pytest.raises(MarketError):
            market.outcome(99)

    def test_price_source_exhaustion_detected(self):
        history = SpotPriceHistory(prices=np.full(3, 0.9))  # never accepted
        market = SpotMarket(TracePriceSource(history))
        market.submit(bid_price=0.05, work=1.0, kind=BidKind.PERSISTENT)
        with pytest.raises(MarketError):
            market.run_until_done()

    def test_max_slots_guard(self):
        market = flat_market(price=0.9, slots=1000)  # bid never accepted
        market.submit(bid_price=0.05, work=1.0, kind=BidKind.PERSISTENT)
        with pytest.raises(MarketError):
            market.run_until_done(max_slots=10)

    def test_invalid_slot_length(self):
        history = SpotPriceHistory(prices=np.full(3, 0.03))
        with pytest.raises(MarketError):
            SpotMarket(TracePriceSource(history), slot_length=0.0)

    def test_invalid_price_from_source(self, rng):
        class Broken(TracePriceSource):
            def next_price(self):
                return float("nan")

        history = SpotPriceHistory(prices=np.full(3, 0.03))
        market = SpotMarket(Broken(history))
        with pytest.raises(MarketError):
            market.step()


class TestCancellation:
    def test_cancel_stops_an_endless_request(self):
        market = flat_market()
        rid = market.submit(bid_price=0.05, work=math.inf, kind=BidKind.ONE_TIME)
        for _ in range(5):
            market.step()
        market.cancel(rid)
        assert market.request_state(rid) is RequestState.CANCELLED
        outcome = market.outcome(rid)
        assert math.isclose(outcome.cost, 0.03 * 5 * TK)
        assert not market.has_active_requests()


class TestEventLog:
    def test_prices_and_lifecycle_logged(self):
        market = flat_market()
        rid = market.submit(bid_price=0.05, work=TK, kind=BidKind.PERSISTENT)
        market.run_until_done()
        assert market.log.count(EventKind.PRICE_SET) == 1
        assert market.log.count(EventKind.REQUEST_SUBMITTED, rid) == 1
        assert market.log.count(EventKind.INSTANCE_LAUNCHED, rid) == 1
        assert market.log.count(EventKind.JOB_COMPLETED, rid) == 1

    def test_event_recording_can_be_disabled(self):
        history = SpotPriceHistory(prices=np.full(10, 0.03))
        market = SpotMarket(TracePriceSource(history), record_events=False)
        market.submit(bid_price=0.05, work=TK, kind=BidKind.PERSISTENT)
        market.run_until_done()
        assert len(market.log) == 0


class TestBillingPolicyPlumbing:
    def test_hourly_billing_waives_interrupted_partial_hour(self):
        prices = np.concatenate([np.full(6, 0.03), np.full(6, 0.9), np.full(24, 0.03)])
        history = SpotPriceHistory(prices=prices)
        market = SpotMarket(TracePriceSource(history), billing_factory=HourlyBilling)
        rid = market.submit(bid_price=0.05, work=2.0, kind=BidKind.ONE_TIME)
        for _ in range(len(prices)):
            market.step()
            if not market.has_active_requests():
                break
        outcome = market.outcome(rid)
        # Out-bid after half an hour: EC2 waives the partial hour.
        assert outcome.state is RequestState.FAILED
        assert outcome.cost == 0.0


class TestIIDSource:
    def test_market_with_model_source(self, r3_model, rng):
        market = SpotMarket(IIDPriceSource(r3_model, rng))
        rid = market.submit(
            bid_price=r3_model.ppf(0.95), work=1.0,
            kind=BidKind.PERSISTENT, recovery_time=30 / 3600,
        )
        market.run_until_done(max_slots=5000)
        assert market.outcome(rid).completed


class TestConcurrentHeterogeneousRequests:
    def test_partial_interruption_hits_only_low_bidders(self):
        prices = np.concatenate([
            np.full(3, 0.03), np.full(3, 0.06), np.full(30, 0.03),
        ])
        market = SpotMarket(TracePriceSource(SpotPriceHistory(prices=prices)))
        low = market.submit(bid_price=0.04, work=1.0, kind=BidKind.PERSISTENT)
        high = market.submit(bid_price=0.08, work=1.0, kind=BidKind.PERSISTENT)
        market.run_until_done()
        low_out, high_out = market.outcome(low), market.outcome(high)
        assert high_out.interruptions == 0
        assert low_out.interruptions == 1
        # Same work, but the low bidder idled through the spike...
        assert low_out.completion_time > high_out.completion_time
        # ...while the high bidder paid the spike prices.
        assert high_out.cost > low_out.cost

    def test_one_time_and_persistent_diverge_on_the_same_spike(self):
        prices = np.concatenate([
            np.full(3, 0.03), np.full(3, 0.06), np.full(30, 0.03),
        ])
        market = SpotMarket(TracePriceSource(SpotPriceHistory(prices=prices)))
        fragile = market.submit(bid_price=0.04, work=1.0, kind=BidKind.ONE_TIME)
        sturdy = market.submit(bid_price=0.04, work=1.0, kind=BidKind.PERSISTENT)
        market.run_until_done()
        assert market.outcome(fragile).state is RequestState.FAILED
        assert market.outcome(sturdy).completed
