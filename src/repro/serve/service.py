"""The bid-decision daemon: JSON-lines-over-TCP on precomputed tables.

:class:`BidService` is the transport-free core: one synchronous
:meth:`~BidService.handle` per request, layered as

1. **degradation guard** — tables stale (older than the slot TTL) or
   market faulted → explicit on-demand fallback, never a wrong answer;
2. **cache** — the tiered :class:`~repro.serve.cache.DecisionCache`,
   invalidated implicitly by table-version mismatch;
3. **tables** — the generation's precomputed decisions
   (:class:`~repro.serve.tables.BidTableSet`), falling back to inline
   computation for non-tabled strategies and off-grid jobs.

``serve_forever``/:func:`start_server` wrap the core in an asyncio TCP
server speaking the :mod:`repro.serve.protocol` wire format alongside an
:class:`~repro.serve.ingest.IngestLoop` advancing the market.  The
degradation matrix lives in ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..constants import SLOTS_PER_DAY
from ..core.types import DecisionRequest, DecisionResponse
from ..errors import InfeasibleBidError, ServeError
from .cache import DecisionCache
from .ingest import IngestLoop, MarketState
from .protocol import (
    decode_line,
    encode_line,
    error_to_wire,
    request_from_wire,
    response_to_wire,
)

__all__ = ["ServiceStats", "BidService", "start_server"]


@dataclass
class ServiceStats:
    """Lifetime request counters of one :class:`BidService`."""

    requests: int = 0
    errors: int = 0
    degraded: int = 0
    by_tier: Dict[str, int] = field(default_factory=dict)

    def record(self, response: DecisionResponse) -> None:
        self.requests += 1
        tier = response.cache_tier or "compute"
        self.by_tier[tier] = self.by_tier.get(tier, 0) + 1
        if response.degradation_reason is not None:
            self.degraded += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "degraded": self.degraded,
            "by_tier": dict(self.by_tier),
        }


class BidService:
    """Answers :class:`DecisionRequest`\\ s from a live market state.

    Parameters
    ----------
    state:
        The ingest-fed market view whose current
        :class:`~repro.serve.tables.BidTableSet` answers requests.
    cache:
        Optional decision cache; omit to construct a default
        memory-only :class:`~repro.serve.cache.DecisionCache`.
    stale_after:
        Table TTL in ingested slots (default: one day of slots).  Older
        tables degrade to the on-demand fallback instead of serving
        prices computed from a market that has since moved.
    """

    def __init__(
        self,
        state: MarketState,
        *,
        cache: Optional[DecisionCache] = None,
        stale_after: int = SLOTS_PER_DAY,
    ):
        if stale_after < 1:
            raise ServeError(f"stale_after must be >= 1, got {stale_after!r}")
        self.state = state
        self.cache = cache if cache is not None else DecisionCache()
        self.stale_after = int(stale_after)
        self.stats = ServiceStats()

    # -- decision path (hot) ----------------------------------------------
    def handle(self, request: DecisionRequest) -> DecisionResponse:
        """One decision, through guard → cache → tables.

        Never raises for market conditions: staleness, faults and
        infeasible optimizations all answer with the explicit on-demand
        fallback and a ``degradation_reason``.  Only programmer errors
        (e.g. an unregistered strategy) propagate.
        """
        tables = self.state.tables
        reason = self._degradation_reason(tables)
        if reason is not None:
            response = self._fallback(request, tables.version, reason)
            self.stats.record(response)
            return response
        cached = self.cache.get(request, tables.version)
        if cached is not None:
            self.stats.record(cached)
            return cached
        try:
            response = tables.decide(request)
        except InfeasibleBidError as exc:
            # Only reachable with request.degrade=False; the service
            # still answers rather than faulting the connection.
            response = self._fallback(request, tables.version, str(exc))
            self.stats.record(response)
            return response
        self.cache.put(request, response)
        self.stats.record(response)
        return response

    def _degradation_reason(self, tables: Any) -> Optional[str]:
        if self.state.faulted:
            return f"market faulted: {self.state.fault_reason or 'unknown'}"
        age = tables.age(self.state.slots_ingested)
        if age > self.stale_after:
            return (
                f"tables stale: generation {tables.generation} is {age} "
                f"slots old (TTL {self.stale_after})"
            )
        return None

    def _fallback(
        self, request: DecisionRequest, version: str, reason: str
    ) -> DecisionResponse:
        decision = self.state.tables.client.degraded_decision(
            request.job, strategy=request.strategy, reason=reason
        )
        return DecisionResponse(
            decision=decision,
            request=request,
            table_version=version,
            cache_tier="compute",
            degradation_reason=reason,
        )

    # -- introspection ops -------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The ``health`` op payload: liveness plus degradation status."""
        tables = self.state.tables
        reason = self._degradation_reason(tables)
        return {
            "ok": True,
            "status": "degraded" if reason is not None else "serving",
            "degradation_reason": reason,
            "instance_type": self.state.instance_type,
            "table_version": tables.version,
            "generation": tables.generation,
            "slots_ingested": self.state.slots_ingested,
            "faulted": self.state.faulted,
        }

    def stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` op payload: service and cache counters."""
        return {
            "ok": True,
            "service": self.stats.as_dict(),
            "cache": self.cache.stats().as_dict(),
            "table_version": self.state.tables.version,
            "generation": self.state.tables.generation,
        }

    # -- wire dispatch -----------------------------------------------------
    def handle_wire(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one decoded wire object to the matching op."""
        op = payload.get("op", "decide")
        if op == "decide":
            try:
                request = request_from_wire(payload)
            except ServeError as exc:
                self.stats.errors += 1
                return error_to_wire(str(exc))
            return response_to_wire(self.handle(request))
        if op == "health":
            return self.health()
        if op == "stats":
            return self.stats_payload()
        self.stats.errors += 1
        return error_to_wire(f"unknown op {op!r}")

    # -- asyncio transport -------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client: a JSON line in, a JSON line out, pipelined."""
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = decode_line(line)
                except ServeError as exc:
                    self.stats.errors += 1
                    answer = error_to_wire(str(exc))
                else:
                    answer = self.handle_wire(payload)
                writer.write(encode_line(answer))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Server shutdown can cancel the close handshake itself;
                # the connection is going away either way.
                pass


async def start_server(
    service: BidService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ingest: Optional[IngestLoop] = None,
    max_ingest_slots: Optional[int] = None,
) -> "asyncio.Server":
    """Bind the TCP server and, optionally, start the ingest loop.

    Returns the listening :class:`asyncio.Server` (query
    ``server.sockets[0].getsockname()`` for the bound port).  When
    ``ingest`` is given its ``run`` coroutine is scheduled on the same
    loop; cancelling the server task tears both down.
    """
    server = await asyncio.start_server(service.handle_connection, host, port)
    if ingest is not None:
        task = asyncio.get_running_loop().create_task(
            ingest.run(max_slots=max_ingest_slots)
        )
        # Keep a handle so callers can cancel/await ingest on shutdown.
        server._repro_ingest_task = task  # type: ignore[attr-defined]
    return server
