"""Price ingest: advancing market state and rebuilding bid tables.

:class:`MarketState` is the synchronous core — a rolling price window fed
one slot at a time from any :class:`~repro.market.price_sources.PriceSource`
(replayed traces or IID draws from a fitted distribution).  A faulty
feed is a replayed trace that
:meth:`~repro.resilience.faults.FaultInjector.perturb_history` rewrote,
``TracePriceSource(injector.perturb_history(trace))``; the state ingests
exactly the prices a backtest of that trace would see.
Every ``rebuild_every`` ingested slots it recomputes the bid tables from
the current window and *publishes* the new generation with a single
attribute assignment, so readers on the request hot path never block and
never observe a half-built table: they either see the old generation or
the new one.

:class:`IngestLoop` is the thin asyncio wrapper the daemon runs: it pulls
slots on an interval and pushes the (CPU-bound) rebuild off the event
loop into a worker thread, publishing the result back on the loop.

Staleness is measured in *ingest slots*, not wall-clock time — the serve
layer is deterministic under replay, and a paused market should degrade
the same way in a test as in production.
"""

from __future__ import annotations

import asyncio
import math
from typing import List, Optional

import numpy as np

from ..constants import HISTORY_WINDOW_DAYS, SLOTS_PER_DAY
from ..errors import FaultError, MarketError, ServeError
from ..market.price_sources import PriceSource
from ..traces.history import SpotPriceHistory
from .tables import BidTableSet, TableGrid, build_table_set

__all__ = ["MarketState", "IngestLoop"]

#: Default rolling-window length: the two-month history Amazon exposes.
DEFAULT_WINDOW_SLOTS: int = HISTORY_WINDOW_DAYS * SLOTS_PER_DAY

#: Default rebuild cadence, in ingested slots (one hour of 5-minute slots).
DEFAULT_REBUILD_EVERY: int = 12


class MarketState:
    """Rolling market view and table generations for one instance type.

    Parameters
    ----------
    source:
        Where new per-slot prices come from.  Exhaustion, injected
        faults (:class:`~repro.errors.MarketError`,
        :class:`~repro.errors.FaultError`) or a price that is not finite
        and non-negative mark the state *faulted*; the service then
        degrades to the on-demand fallback instead of crashing.
    initial_history:
        The bootstrap price window (e.g. the two-month history download);
        also fixes the slot length and instance-type label.
    ondemand_price:
        ``π̄`` for the market, the feasibility ceiling of every rebuild.
    window_slots:
        Rolling-window bound; old slots fall off as new ones arrive.
    rebuild_every:
        Ingested-slot cadence at which :meth:`rebuild_due` turns true.
    grid:
        Table grid passed through to :func:`build_table_set`.
    """

    def __init__(
        self,
        source: PriceSource,
        *,
        initial_history: SpotPriceHistory,
        ondemand_price: float,
        window_slots: int = DEFAULT_WINDOW_SLOTS,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
        grid: Optional[TableGrid] = None,
    ):
        if window_slots < 2:
            raise ServeError(f"window_slots must be >= 2, got {window_slots!r}")
        if rebuild_every < 1:
            raise ServeError(f"rebuild_every must be >= 1, got {rebuild_every!r}")
        self._source = source
        self._ondemand_price = float(ondemand_price)
        self._window_slots = int(window_slots)
        self._rebuild_every = int(rebuild_every)
        self._grid = grid
        self._slot_length = float(initial_history.slot_length)
        self._instance_type = initial_history.instance_type
        self._prices: List[float] = [
            float(p) for p in initial_history.prices[-window_slots:]
        ]
        self.slots_ingested: int = 0
        self.faulted: bool = False
        self.fault_reason: Optional[str] = None
        self._tables: BidTableSet = self.build_snapshot(generation=0)

    # -- read side (request hot path; never blocks) -----------------------
    @property
    def tables(self) -> BidTableSet:
        """The current table generation (atomic attribute read)."""
        return self._tables

    @property
    def ondemand_price(self) -> float:
        return self._ondemand_price

    @property
    def instance_type(self) -> Optional[str]:
        return self._instance_type

    def history(self) -> SpotPriceHistory:
        """The current rolling window as an immutable history snapshot."""
        return SpotPriceHistory(
            prices=np.asarray(self._prices, dtype=float),
            slot_length=self._slot_length,
            instance_type=self._instance_type,
        )

    # -- write side (ingest loop) -----------------------------------------
    def observe(self, price: float) -> None:
        """Append one slot's price to the rolling window.

        Raises :class:`~repro.errors.MarketError` for a NaN, infinite or
        negative price, which no bid table could be built from.
        """
        price = float(price)
        if not (math.isfinite(price) and price >= 0.0):
            raise MarketError(
                f"price {price!r} at ingest slot {self.slots_ingested} is "
                "not finite and non-negative"
            )
        self._prices.append(price)
        if len(self._prices) > self._window_slots:
            del self._prices[: len(self._prices) - self._window_slots]
        self.slots_ingested += 1

    def advance(self, n_slots: int = 1) -> int:
        """Pull up to ``n_slots`` prices from the source.

        Returns the number actually ingested.  A :class:`MarketError` or
        :class:`FaultError` from the source, or a price :meth:`observe`
        rejects, marks the state faulted and stops the pull; it is *not*
        re-raised — degradation is the service's job, not the ingest
        loop's.
        """
        ingested = 0
        for _ in range(n_slots):
            try:
                self.observe(self._source.next_price())
            except (MarketError, FaultError) as exc:
                self.faulted = True
                self.fault_reason = str(exc)
                break
            ingested += 1
        return ingested

    def clear_fault(self) -> None:
        """Reset the fault latch (e.g. after swapping the source)."""
        self.faulted = False
        self.fault_reason = None

    def rebuild_due(self) -> bool:
        """Whether enough slots arrived since the last published rebuild."""
        return (
            self.slots_ingested - self._tables.built_at_slot >= self._rebuild_every
        )

    def build_snapshot(self, *, generation: Optional[int] = None) -> BidTableSet:
        """Build (but do not publish) a table set from the current window.

        Pure with respect to the published state — safe to run on a
        worker thread while requests keep reading the old generation.
        """
        if generation is None:
            generation = self._tables.generation + 1
        return build_table_set(
            self.history(),
            ondemand_price=self._ondemand_price,
            grid=self._grid,
            built_at_slot=self.slots_ingested,
            generation=generation,
        )

    def publish(self, tables: BidTableSet) -> None:
        """Swap in a new generation (single atomic assignment)."""
        self._tables = tables

    def rebuild(self) -> BidTableSet:
        """Synchronous build-and-publish; returns the new generation."""
        tables = self.build_snapshot()
        self.publish(tables)
        return tables


class IngestLoop:
    """Asyncio driver: ingest slots, rebuild tables off the event loop."""

    def __init__(self, state: MarketState, *, interval: float = 0.0):
        if interval < 0:
            raise ServeError(f"interval must be non-negative, got {interval!r}")
        self.state = state
        self.interval = float(interval)
        self.rebuilds: int = 0

    async def step(self) -> int:
        """Ingest one slot; rebuild and publish if the cadence is due."""
        ingested = self.state.advance(1)
        if self.state.rebuild_due():
            tables = await asyncio.to_thread(self.state.build_snapshot)
            self.state.publish(tables)
            self.rebuilds += 1
        return ingested

    async def run(self, *, max_slots: Optional[int] = None) -> None:
        """Ingest until the source faults or ``max_slots`` slots arrive.

        ``interval`` seconds of sleep separate the pulls (zero in tests
        and replay mode, the slot length in live deployments).  Any other
        exception also marks the state faulted before it propagates, so
        a dead ingest task degrades the service instead of leaving it
        answering from tables that silently stopped aging.
        """
        done = 0
        try:
            while max_slots is None or done < max_slots:
                ingested = await self.step()
                done += ingested
                if ingested == 0:
                    break
                if self.interval > 0:
                    await asyncio.sleep(self.interval)
        except Exception as exc:
            self.state.faulted = True
            self.state.fault_reason = f"ingest task died: {exc!r}"
            raise
