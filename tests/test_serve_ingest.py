"""Price ingest: rolling windows, rebuild cadence, fault latching."""

import asyncio

import numpy as np
import pytest

from repro.core.types import DecisionRequest, JobSpec, Strategy
from repro.errors import FaultError, MarketError, ServeError
from repro.market.price_sources import PriceSource, TracePriceSource
from repro.resilience.faults import (
    FaultInjector,
    PriceSpike,
    SlotDropout,
    TraceTruncation,
)
from repro.serve.ingest import IngestLoop, MarketState
from repro.serve.service import BidService
from repro.traces.history import SpotPriceHistory

ONDEMAND = 0.35


class ExplodingSource(PriceSource):
    """Yields ``n_good`` prices, then raises the given error forever."""

    def __init__(self, n_good: int, error: Exception):
        self._n_good = n_good
        self._error = error
        self._served = 0

    def next_price(self) -> float:
        if self._served >= self._n_good:
            raise self._error
        self._served += 1
        return 0.04


class ScriptedSource(PriceSource):
    """Yields 0.04 per slot, except ``bad`` at slot ``at``."""

    def __init__(self, at: int, bad: float):
        self._at = at
        self._bad = bad
        self._served = 0

    def next_price(self) -> float:
        slot = self._served
        self._served += 1
        return self._bad if slot == self._at else 0.04


def decide(service, serve_history, serve_grid):
    return service.handle(
        DecisionRequest(
            job=JobSpec(
                execution_time=serve_grid.execution_times[1],
                slot_length=serve_history.slot_length,
            ),
            strategy=Strategy.PERSISTENT,
        )
    )


def make_state(serve_history, serve_grid, source=None, **kwargs):
    if source is None:
        source = TracePriceSource(serve_history)
    kwargs.setdefault("window_slots", serve_history.n_slots)
    return MarketState(
        source,
        initial_history=serve_history,
        ondemand_price=ONDEMAND,
        grid=serve_grid,
        **kwargs,
    )


class TestMarketState:
    def test_observe_respects_the_rolling_window(
        self, serve_history, serve_grid
    ):
        state = make_state(
            serve_history, serve_grid, window_slots=serve_history.n_slots
        )
        for _ in range(10):
            state.observe(0.99)
        window = state.history()
        assert window.n_slots == serve_history.n_slots
        assert window.prices[-1] == 0.99
        assert state.slots_ingested == 10

    def test_advance_pulls_from_the_source(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid)
        assert state.advance(5) == 5
        assert state.slots_ingested == 5
        # The replayed slots are now the newest entries in the window.
        np.testing.assert_array_equal(
            state.history().prices[-5:], serve_history.prices[:5]
        )

    @pytest.mark.parametrize(
        "error", [MarketError("trace exhausted"), FaultError("injected")]
    )
    def test_source_errors_latch_the_fault_instead_of_raising(
        self, serve_history, serve_grid, error
    ):
        state = make_state(
            serve_history, serve_grid, source=ExplodingSource(3, error)
        )
        assert state.advance(10) == 3  # stops at the fault, no raise
        assert state.faulted
        assert str(error) in state.fault_reason
        state.clear_fault()
        assert not state.faulted and state.fault_reason is None

    def test_rebuild_due_follows_the_cadence(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid, rebuild_every=4)
        assert not state.rebuild_due()
        state.advance(3)
        assert not state.rebuild_due()
        state.advance(1)
        assert state.rebuild_due()
        state.rebuild()
        assert not state.rebuild_due()

    def test_rebuild_due_counts_from_the_published_generation(
        self, serve_history, serve_grid
    ):
        state = make_state(serve_history, serve_grid, rebuild_every=4)
        state.advance(2)
        snapshot = state.build_snapshot()
        state.advance(3)
        assert state.rebuild_due()  # five slots since generation 0
        state.publish(snapshot)
        assert snapshot.built_at_slot == 2
        assert not state.rebuild_due()  # three slots since the snapshot
        state.advance(1)
        assert state.rebuild_due()

    def test_rebuild_bumps_generation_and_version(
        self, serve_history, serve_grid
    ):
        state = make_state(serve_history, serve_grid)
        before = state.tables
        state.advance(6)
        after = state.rebuild()
        assert state.tables is after
        assert after.generation == before.generation + 1
        assert after.version != before.version
        assert after.built_at_slot == 6

    def test_build_snapshot_does_not_publish(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid)
        before = state.tables
        snapshot = state.build_snapshot()
        assert state.tables is before  # readers still see the old generation
        state.publish(snapshot)
        assert state.tables is snapshot

    def test_new_generation_answers_from_the_new_window(
        self, serve_history, serve_grid
    ):
        """The rebuilt tables reflect the shifted distribution."""
        state = make_state(
            serve_history,
            serve_grid,
            source=ExplodingSource(10**9, MarketError("n/a")),
            window_slots=200,
        )
        request = DecisionRequest(
            job=JobSpec(
                execution_time=serve_grid.execution_times[1],
                slot_length=serve_history.slot_length,
            ),
            strategy=Strategy.PERSISTENT,
            degrade=True,
        )
        before = state.tables.decide(request)
        state.advance(200)  # window now holds only the 0.04 regime
        after = state.rebuild().decide(request)
        assert after.table_version != before.table_version

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.01])
    def test_observe_rejects_a_price_no_table_could_use(
        self, serve_history, serve_grid, bad
    ):
        state = make_state(serve_history, serve_grid)
        with pytest.raises(MarketError, match="not finite and non-negative"):
            state.observe(bad)
        assert state.slots_ingested == 0
        assert state.history().prices[-1] == serve_history.prices[-1]

    def test_constructor_guards(self, serve_history, serve_grid):
        with pytest.raises(ServeError):
            make_state(serve_history, serve_grid, window_slots=1)
        with pytest.raises(ServeError):
            make_state(serve_history, serve_grid, rebuild_every=0)


class TestFaultInjectedFeed:
    """A faulty live feed replays the trace the fault injector rewrote,
    so the market ingests exactly the prices a backtest of it sees."""

    @pytest.mark.parametrize("seed", [1, 5])
    def test_ingests_exactly_the_perturbed_prices(
        self, serve_history, serve_grid, seed
    ):
        injector = FaultInjector(
            [SlotDropout(rate=0.3), PriceSpike(rate=0.2)], seed=seed
        )
        expected = injector.perturb_prices(serve_history.prices)
        feed = TracePriceSource(injector.perturb_history(serve_history))
        state = make_state(serve_history, serve_grid, source=feed)
        assert state.advance(serve_history.n_slots) == expected.size
        np.testing.assert_array_equal(
            state.history().prices[-expected.size :], expected
        )
        assert state.faulted  # the replay ran out, like any spent trace

    def test_truncated_feed_answers_the_on_demand_fallback(
        self, serve_history, serve_grid
    ):
        injector = FaultInjector([TraceTruncation(fraction=0.1)], seed=0)
        feed = TracePriceSource(injector.perturb_history(serve_history))
        state = make_state(serve_history, serve_grid, source=feed)
        service = BidService(state, stale_after=10**6)
        assert state.advance(serve_history.n_slots) == serve_history.n_slots // 10
        assert state.faulted
        response = decide(service, serve_history, serve_grid)
        assert response.decision.degraded
        assert response.decision.price == ONDEMAND
        assert response.degradation_reason.startswith("market faulted: ")


class TestIngestLoop:
    def test_step_rebuilds_on_cadence(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid, rebuild_every=3)
        loop = IngestLoop(state)

        async def drive():
            for _ in range(7):
                await loop.step()

        asyncio.run(drive())
        assert state.slots_ingested == 7
        assert loop.rebuilds == 2  # after slots 3 and 6
        assert state.tables.generation == 2

    def test_run_stops_on_fault(self, serve_history, serve_grid):
        state = make_state(
            serve_history,
            serve_grid,
            source=ExplodingSource(4, MarketError("done")),
            rebuild_every=100,
        )
        loop = IngestLoop(state)
        asyncio.run(loop.run(max_slots=50))
        assert state.slots_ingested == 4
        assert state.faulted

    def test_run_honors_max_slots(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid, rebuild_every=100)
        loop = IngestLoop(state)
        asyncio.run(loop.run(max_slots=5))
        assert state.slots_ingested == 5
        assert not state.faulted

    def test_bad_price_latches_the_fault(self, serve_history, serve_grid):
        """A NaN at slot 5 must fault the market within half a second,
        and the next decide must answer degraded, with the reason."""
        state = make_state(
            serve_history,
            serve_grid,
            source=ScriptedSource(at=5, bad=float("nan")),
            rebuild_every=4,
        )
        service = BidService(state, stale_after=100)

        async def drive():
            task = asyncio.get_running_loop().create_task(IngestLoop(state).run())
            await asyncio.wait_for(task, timeout=0.5)

        asyncio.run(drive())
        assert state.faulted
        assert "nan" in state.fault_reason
        assert state.slots_ingested == 5
        assert state.tables.generation == 1
        response = decide(service, serve_history, serve_grid)
        assert response.decision.degraded
        assert response.degradation_reason.startswith("market faulted: ")
        assert "nan" in response.degradation_reason

    def test_dead_ingest_task_latches_the_fault(self, serve_history, serve_grid):
        state = make_state(
            serve_history,
            serve_grid,
            source=ExplodingSource(3, RuntimeError("feed lost")),
        )
        service = BidService(state, stale_after=100)
        with pytest.raises(RuntimeError, match="feed lost"):
            asyncio.run(IngestLoop(state).run())
        assert state.faulted
        assert "feed lost" in state.fault_reason
        response = decide(service, serve_history, serve_grid)
        assert response.decision.degraded
        assert response.degradation_reason.startswith("market faulted: ")

    def test_negative_interval_rejected(self, serve_history, serve_grid):
        state = make_state(serve_history, serve_grid)
        with pytest.raises(ServeError):
            IngestLoop(state, interval=-1.0)
