"""Live bid-decision serving on precomputed bid tables.

The paper's client (Figure 1) recomputes its bid from scratch on every
question; this package turns the same decision path into a service:

* :mod:`repro.serve.tables` — versioned, immutable bid-table artifacts
  precomputed over job-parameter grids (bitwise-identical to the batch
  client on grid points).
* :mod:`repro.serve.ingest` — the price-ingest loop advancing per-market
  state and rebuilding tables off the hot path, behind a generation
  counter.
* :mod:`repro.serve.cache` — the tiered cache of inline decisions
  (in-process LRU over an optional persistent file layer), invalidated
  by table version.
* :mod:`repro.serve.service` — the asyncio daemon speaking JSON lines
  over TCP (``repro-bid serve``), degrading to the on-demand fallback
  when tables go stale or the market faults.
* :mod:`repro.serve.loadgen` — the deterministic load generator behind
  the serving benchmarks and the CI smoke gate.

See ``docs/serving.md`` for the architecture, the wire protocol and the
degradation matrix.
"""

from .cache import CacheStats, DecisionCache
from .ingest import IngestLoop, MarketState
from .loadgen import LoadReport, build_requests, latency_histogram, run_loadgen
from .service import BidService, ServiceStats, start_server
from .tables import (
    BidTable,
    BidTableSet,
    TableGrid,
    build_bid_table,
    build_table_set,
    default_grid,
)

__all__ = [
    "BidService",
    "BidTable",
    "BidTableSet",
    "CacheStats",
    "DecisionCache",
    "IngestLoop",
    "LoadReport",
    "MarketState",
    "ServiceStats",
    "TableGrid",
    "build_bid_table",
    "build_requests",
    "build_table_set",
    "default_grid",
    "latency_histogram",
    "run_loadgen",
    "start_server",
]
