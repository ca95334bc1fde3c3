"""SpotRequest records and lifecycle states."""

import math

import pytest

from repro.core.types import BidKind
from repro.errors import MarketError
from repro.market.requests import RequestState, SpotRequest


class TestStates:
    def test_terminal_classification(self):
        assert RequestState.COMPLETED.is_terminal
        assert RequestState.FAILED.is_terminal
        assert RequestState.CANCELLED.is_terminal
        assert not RequestState.PENDING.is_terminal
        assert not RequestState.RUNNING.is_terminal


class TestSpotRequest:
    def _request(self, **overrides):
        base = dict(
            request_id=1, bid_price=0.04, kind=BidKind.PERSISTENT, work=1.0,
        )
        base.update(overrides)
        return SpotRequest(**base)

    def test_initial_state(self):
        r = self._request()
        assert r.state is RequestState.PENDING
        assert r.is_active
        assert r.work_remaining == 1.0
        assert r.cost == 0.0

    def test_infinite_work_allowed(self):
        r = self._request(work=math.inf)
        assert math.isinf(r.work_remaining)

    @pytest.mark.parametrize("work", [0.0, -1.0])
    def test_invalid_work(self, work):
        with pytest.raises(MarketError):
            self._request(work=work)

    @pytest.mark.parametrize("bid", [-0.01, math.inf, math.nan])
    def test_invalid_bid(self, bid):
        with pytest.raises(MarketError):
            self._request(bid_price=bid)

    def test_invalid_recovery(self):
        with pytest.raises(MarketError):
            self._request(recovery_time=-0.1)

    def test_invalid_submitted_slot(self):
        with pytest.raises(MarketError):
            self._request(submitted_slot=-1)

    def test_completion_time_relative_to_submission(self):
        r = self._request(submitted_slot=12)
        assert r.completion_time(1.0 / 12.0) is None
        r.completed_at = 2.0
        assert math.isclose(r.completion_time(1.0 / 12.0), 1.0)
