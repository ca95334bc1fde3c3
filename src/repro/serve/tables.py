"""Versioned, immutable bid-table artifacts for the serving layer.

The paper's optimizers (Props. 4–5, the percentile heuristic) depend only
on the empirical price distribution and the job parameters, so their
answers can be *precomputed*: a :class:`BidTable` evaluates the unified
:meth:`~repro.core.client.BiddingClient.respond` path over an inverse-CDF
grid of job-parameter buckets and freezes the resulting decisions into an
immutable artifact stamped with a content-addressed version.

Serving then reduces to a grid lookup:

* **On a grid point** the stored decision *is* the decision the client
  would compute — bitwise identical, because it was produced by the same
  code path at build time.
* **Off-grid** (within the grid's coverage) the request snaps to the
  nearest bucket; :meth:`BidTable.interpolation_error_bound` bounds the
  bid-price error by the price oscillation across the bracketing cell,
  which shrinks as the grid refines.
* **Outside the coverage** :meth:`BidTableSet.table_for` finds no
  table and :meth:`BidTableSet.decide` computes inline (see
  :mod:`repro.serve.service`).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..constants import DEFAULT_SLOT_HOURS
from ..core.client import BiddingClient
from ..core.types import (
    BidDecision,
    DecisionRequest,
    DecisionResponse,
    JobSpec,
    Strategy,
)
from ..errors import ServeError
from ..traces.history import SpotPriceHistory

__all__ = [
    "TableGrid",
    "BidTable",
    "BidTableSet",
    "default_grid",
    "build_bid_table",
    "build_table_set",
]

#: Strategies answered from precomputed tables; PERCENTILE decisions are
#: cheap single-quantile reads and stay on the inline path.
TABLED_STRATEGIES: Tuple[Strategy, ...] = (Strategy.ONE_TIME, Strategy.PERSISTENT)

#: Bid-table resolution of :func:`default_grid`: execution-time points
#: by recovery-time points.
DEFAULT_GRID_SHAPE: Tuple[int, int] = (32, 8)


@dataclass(frozen=True)
class TableGrid:
    """Job-parameter buckets a :class:`BidTable` is evaluated over.

    ``execution_times`` (``t_s``) and ``recovery_times`` (``t_r``) are
    strictly increasing coordinate axes, in hours; the table covers their
    Cartesian product.
    """

    execution_times: Tuple[float, ...]
    recovery_times: Tuple[float, ...]

    def __post_init__(self) -> None:
        ts = tuple(float(v) for v in self.execution_times)
        tr = tuple(float(v) for v in self.recovery_times)
        if len(ts) < 2 or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ServeError(
                "execution_times must be at least two strictly increasing values"
            )
        if not ts[0] > 0:
            raise ServeError("execution_times must be positive")
        if not tr or any(b <= a for a, b in zip(tr, tr[1:])):
            raise ServeError(
                "recovery_times must be non-empty and strictly increasing"
            )
        if tr[0] < 0:
            raise ServeError("recovery_times must be non-negative")
        object.__setattr__(self, "execution_times", ts)
        object.__setattr__(self, "recovery_times", tr)

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.execution_times), len(self.recovery_times)

    def covers(self, job: JobSpec) -> bool:
        """Whether ``job``'s parameters fall inside the gridded ranges."""
        ts, tr = self.execution_times, self.recovery_times
        return (
            ts[0] <= job.execution_time <= ts[-1]
            and tr[0] <= job.recovery_time <= tr[-1]
        )

    @staticmethod
    def _nearest(axis: Sequence[float], value: float) -> int:
        hi = bisect.bisect_left(axis, value)
        if hi == 0:
            return 0
        if hi == len(axis):
            return len(axis) - 1
        lo = hi - 1
        return lo if value - axis[lo] <= axis[hi] - value else hi

    @staticmethod
    def _bracket(axis: Sequence[float], value: float) -> Tuple[int, int]:
        hi = bisect.bisect_left(axis, value)
        if hi == 0:
            return 0, 0
        if hi == len(axis):
            return len(axis) - 1, len(axis) - 1
        lo = hi - 1
        return (hi, hi) if axis[hi] == value else (lo, hi)

    def snap(self, job: JobSpec) -> Tuple[int, int]:
        """Indices of the grid point nearest to ``job``'s parameters.

        Raises :class:`~repro.errors.ServeError` when the job falls
        outside the gridded ranges (the caller should compute inline).
        """
        if not self.covers(job):
            raise ServeError(
                f"job (t_s={job.execution_time!r}, t_r={job.recovery_time!r}) "
                f"is outside the table grid coverage "
                f"t_s in [{self.execution_times[0]}, {self.execution_times[-1]}], "
                f"t_r in [{self.recovery_times[0]}, {self.recovery_times[-1]}]"
            )
        return (
            self._nearest(self.execution_times, job.execution_time),
            self._nearest(self.recovery_times, job.recovery_time),
        )

    def bracketing_cell(self, job: JobSpec) -> Tuple[Tuple[int, int], ...]:
        """Grid-index corners of the cell bracketing ``job``.

        Degenerates to fewer corners when the job sits exactly on a grid
        line (and to a single corner on a grid point).
        """
        if not self.covers(job):
            raise ServeError("job is outside the table grid coverage")
        i_lo, i_hi = self._bracket(self.execution_times, job.execution_time)
        j_lo, j_hi = self._bracket(self.recovery_times, job.recovery_time)
        corners = {(i, j) for i in (i_lo, i_hi) for j in (j_lo, j_hi)}
        return tuple(sorted(corners))

    def fingerprint(self) -> bytes:
        """Stable bytes identifying the grid, for table versioning."""
        payload = np.asarray(
            list(self.execution_times) + list(self.recovery_times), dtype=float
        )
        return hashlib.sha1(payload.tobytes()).digest()


def default_grid(
    *,
    shape: Tuple[int, int] = DEFAULT_GRID_SHAPE,
    max_execution: float = 24.0,
    max_recovery: float = 120.0 / 3600.0,
    slot_length: float = DEFAULT_SLOT_HOURS,
) -> TableGrid:
    """The serving default: log-spaced ``t_s``, linear ``t_r`` buckets.

    Execution times span one slot to ``max_execution`` hours on a
    geometric grid (bid prices vary fastest for short jobs, where
    ``1 - t_k/t_s`` moves quickly); recovery times span zero to
    ``max_recovery`` linearly, covering the paper's 10 s/30 s regimes
    with room to spare.  ``shape`` is ``(t_s points, t_r points)``.
    """
    n_ts, n_tr = shape
    if n_ts < 2 or n_tr < 1:
        raise ServeError(
            f"grid shape needs at least 2x1 points, got {n_ts}x{n_tr}"
        )
    execution_times = np.geomspace(slot_length, max_execution, n_ts)
    if n_tr == 1:
        recovery_times = np.asarray([0.0])
    else:
        recovery_times = np.linspace(0.0, max_recovery, n_tr)
    return TableGrid(
        execution_times=tuple(float(v) for v in execution_times),
        recovery_times=tuple(float(v) for v in recovery_times),
    )


@dataclass(frozen=True)
class BidTable:
    """Precomputed decisions for one strategy over a :class:`TableGrid`.

    ``decisions`` is the row-major flattening of the grid's Cartesian
    product: the decision for ``(execution_times[i], recovery_times[j])``
    sits at index ``i * len(recovery_times) + j``.  Every entry was
    produced by :meth:`BiddingClient.respond` with ``degrade=True`` at
    build time, so infeasible buckets hold the explicit on-demand
    fallback rather than holes.
    """

    version: str
    strategy: Strategy
    ondemand_price: float
    slot_length: float
    built_at_slot: int
    grid: TableGrid
    decisions: Tuple[BidDecision, ...]

    def __post_init__(self) -> None:
        n_ts, n_tr = self.grid.shape
        if len(self.decisions) != n_ts * n_tr:
            raise ServeError(
                f"table holds {len(self.decisions)} decisions for a "
                f"{n_ts}x{n_tr} grid"
            )

    def decision_at(self, i: int, j: int) -> BidDecision:
        """The stored decision for grid indices ``(i, j)``."""
        return self.decisions[i * len(self.grid.recovery_times) + j]

    def lookup(self, job: JobSpec) -> BidDecision:
        """The stored decision at the grid point nearest to ``job``.

        Bitwise-identical to the client's answer when ``job`` sits on a
        grid point; raises :class:`~repro.errors.ServeError` outside the
        grid's coverage.
        """
        if job.slot_length != self.slot_length:
            raise ServeError(
                f"job slot length {job.slot_length!r} differs from the "
                f"table's {self.slot_length!r}"
            )
        return self.decision_at(*self.grid.snap(job))

    def interpolation_error_bound(self, job: JobSpec) -> float:
        """Upper bound on the served bid-price error for ``job``.

        The served price is one corner of the cell bracketing the job,
        so whenever the true optimum's price lies within the corner
        envelope (guaranteed for ``Strategy.ONE_TIME``, whose optimal bid
        is monotone in ``t_s`` and independent of ``t_r``) the absolute
        price error is at most the max-min price spread over the corners.
        Zero on grid points by construction.
        """
        corners = self.grid.bracketing_cell(job)
        prices = [self.decision_at(i, j).price for (i, j) in corners]
        return max(prices) - min(prices)

    def age(self, current_slot: int) -> int:
        """Ingest slots elapsed since this table was built."""
        return max(0, current_slot - self.built_at_slot)


def _table_version(
    history: SpotPriceHistory,
    strategy: Strategy,
    grid: TableGrid,
    ondemand_price: float,
    built_at_slot: int,
) -> str:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(history.prices, dtype=float).tobytes())
    digest.update(grid.fingerprint())
    digest.update(strategy.value.encode())
    digest.update(repr((float(ondemand_price), float(history.slot_length))).encode())
    return f"{digest.hexdigest()[:12]}.g{built_at_slot}"


def build_bid_table(
    history: SpotPriceHistory,
    *,
    ondemand_price: float,
    strategy: Strategy,
    grid: Optional[TableGrid] = None,
    built_at_slot: int = 0,
    client: Optional[BiddingClient] = None,
) -> BidTable:
    """Evaluate ``strategy`` over ``grid`` and freeze the decisions.

    Each grid point runs the same
    :meth:`~repro.core.client.BiddingClient.respond` path a live request
    would, with ``degrade=True`` so infeasible buckets store the explicit
    on-demand fallback.
    """
    if grid is None:
        grid = default_grid(slot_length=history.slot_length)
    if client is None:
        client = BiddingClient(history, ondemand_price=ondemand_price)
    decisions = []
    for ts in grid.execution_times:
        for tr in grid.recovery_times:
            job = JobSpec(
                execution_time=ts,
                recovery_time=tr,
                slot_length=history.slot_length,
            )
            response = client.respond(
                DecisionRequest(job=job, strategy=strategy, degrade=True)
            )
            decisions.append(response.decision)
    return BidTable(
        version=_table_version(history, strategy, grid, ondemand_price, built_at_slot),
        strategy=strategy,
        ondemand_price=float(ondemand_price),
        slot_length=float(history.slot_length),
        built_at_slot=int(built_at_slot),
        grid=grid,
        decisions=tuple(decisions),
    )


@dataclass(frozen=True)
class BidTableSet:
    """One generation of tables for a market, plus the builder client.

    The set keeps the :class:`~repro.core.client.BiddingClient` it was
    built from so non-tabled strategies (``PERCENTILE``) and off-grid
    jobs are answered by the *same* distribution snapshot the tables were
    computed from — one consistent version per generation.
    """

    version: str
    generation: int
    built_at_slot: int
    instance_type: Optional[str]
    tables: Mapping[Strategy, BidTable]
    client: BiddingClient = field(repr=False)

    def age(self, current_slot: int) -> int:
        """Ingest slots elapsed since this generation was built."""
        return max(0, current_slot - self.built_at_slot)

    def table_for(self, request: DecisionRequest) -> Optional[BidTable]:
        """The table that answers ``request``, or ``None`` to compute it.

        A table answers a request of its own strategy whose ``t_s`` and
        ``t_r`` fall inside the grid.  ``PERCENTILE``, ``PORTFOLIO`` and
        ``CVAR`` requests, and jobs outside the grid, are computed
        inline.  Raises :class:`~repro.errors.ServeError` when the job's
        slot length is not the one this generation's prices were
        observed at: no tier can answer such a job.
        """
        job = request.job
        slot_length = self.client.history.slot_length
        if job.slot_length != slot_length:
            raise ServeError(
                f"job slot length {job.slot_length!r} differs from the "
                f"market's {slot_length!r}"
            )
        table = self.tables.get(request.strategy)
        if table is None or not table.grid.covers(job):
            return None
        return table

    def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Answer ``request`` from the tables, else compute inline.

        Requests :meth:`table_for` routes to a table are served from the
        precomputed decisions (``cache_tier="table"``); everything else
        runs the client's unified path against the generation's own
        distribution snapshot (``cache_tier="compute"``).  Both carry
        this generation's version stamp.  A job at another slot length
        raises :class:`~repro.errors.ServeError`.
        """
        table = self.table_for(request)
        if table is not None:
            decision = table.lookup(request.job)
            reason = getattr(decision, "reason", None)
            return DecisionResponse(
                decision=decision,
                request=request,
                table_version=self.version,
                cache_tier="table",
                degradation_reason=reason if decision.degraded else None,
            )
        response = self.client.respond(request)
        return response.with_serving(
            table_version=self.version,
            cache_tier="compute",
            degradation_reason=response.degradation_reason,
        )


def build_table_set(
    history: SpotPriceHistory,
    *,
    ondemand_price: float,
    grid: Optional[TableGrid] = None,
    built_at_slot: int = 0,
    generation: int = 0,
    strategies: Tuple[Strategy, ...] = TABLED_STRATEGIES,
) -> BidTableSet:
    """Build one table per tabled strategy from a history snapshot."""
    if grid is None:
        grid = default_grid(slot_length=history.slot_length)
    client = BiddingClient(history, ondemand_price=ondemand_price)
    tables: Dict[Strategy, BidTable] = {
        strategy: build_bid_table(
            history,
            ondemand_price=ondemand_price,
            strategy=strategy,
            grid=grid,
            built_at_slot=built_at_slot,
            client=client,
        )
        for strategy in strategies
    }
    version = _table_version(
        history, Strategy.PERSISTENT, grid, ondemand_price, built_at_slot
    )
    return BidTableSet(
        version=version,
        generation=int(generation),
        built_at_slot=int(built_at_slot),
        instance_type=history.instance_type,
        tables=tables,
        client=client,
    )
