"""Result types for batched bid sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from ..core.types import Strategy
from ..market.outcomes import OutcomeStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scheduler.journal import ItemFailure
    from ..scheduler.types import SchedulerStats

__all__ = ["SweepCounters", "SweepReport"]


@dataclass(frozen=True)
class SweepCounters:
    """Work accounting for one :func:`~repro.sweep.run_sweep`."""

    n_traces: int
    n_bids: int
    #: Total per-trace slot steps executed by the kernels.
    slots_simulated: int
    #: Wall-clock seconds of the sweep's one
    #: :func:`~repro.scheduler.run_shards` call: the kernels plus, on
    #: the process lane, pool start-up, IPC and journal writes.
    kernel_seconds: float

    @property
    def cells(self) -> int:
        return self.n_traces * self.n_bids


@dataclass(frozen=True)
class SweepReport:
    """Per-cell outcomes of evaluating bids against a stack of traces.

    All arrays have shape ``(n_traces, n_bids)``; in paired mode
    (``pair_bids=True``) the bid axis has length 1 and row ``i`` used
    ``bids[i]``.

    A report from a resilient run may be *partial*: traces whose work
    item failed permanently are listed in :attr:`failures` and their
    rows hold NaN costs/times with ``completed=False``.
    """

    strategy: Strategy
    bids: np.ndarray
    completed: np.ndarray
    cost: np.ndarray
    completion_time: np.ndarray
    running_time: np.ndarray
    idle_time: np.ndarray
    recovery_time_used: np.ndarray
    interruptions: np.ndarray
    counters: SweepCounters
    #: How :func:`repro.scheduler.run_shards` ran the sweep's shards, on
    #: whichever lane: dispatches, reuses, quarantines and, on the
    #: process pool, speculations, crashes and respawns.
    scheduler: "SchedulerStats"
    #: Work items that failed permanently (resilient runs only).
    failures: "Tuple[ItemFailure, ...]" = ()

    @property
    def shape(self) -> Tuple[int, int]:
        return self.cost.shape

    @property
    def is_partial(self) -> bool:
        """True when at least one trace's work item failed permanently."""
        return bool(self.failures)

    def failed_traces(self) -> Tuple[int, ...]:
        """Trace indices whose rows are placeholders, in index order."""
        return tuple(f.index for f in self.failures)

    def cell(self, trace: int, bid: int) -> OutcomeStats:
        """One ``(trace, bid)`` cell as a backend-independent record."""
        return OutcomeStats(
            completed=bool(self.completed[trace, bid]),
            cost=float(self.cost[trace, bid]),
            completion_time=float(self.completion_time[trace, bid]),
            running_time=float(self.running_time[trace, bid]),
            idle_time=float(self.idle_time[trace, bid]),
            recovery_time_used=float(self.recovery_time_used[trace, bid]),
            interruptions=int(self.interruptions[trace, bid]),
        )

    def column(self, trace: int) -> "list[OutcomeStats]":
        """All bid cells for one trace, in bid order."""
        return [self.cell(trace, b) for b in range(self.shape[1])]

    def completion_rate(self) -> np.ndarray:
        """Fraction of traces completed, per bid (shape ``(n_bids,)``)."""
        return self.completed.mean(axis=0)

    def mean_cost(self) -> np.ndarray:
        """Mean realized cost over traces, per bid (shape ``(n_bids,)``)."""
        return self.cost.mean(axis=0)

    def mean_completed_cost(self) -> np.ndarray:
        """Mean cost over *completed* traces per bid; NaN when none did."""
        with np.errstate(invalid="ignore"):
            total = np.where(self.completed, self.cost, 0.0).sum(axis=0)
            count = self.completed.sum(axis=0)
            return np.where(count > 0, total / np.maximum(count, 1), np.nan)

    def best_bid_index(self) -> int:
        """Index of the bid with the lowest mean cost among the bids that
        completed every trace; falls back to highest completion rate."""
        rate = self.completion_rate()
        full = rate >= 1.0
        mean = self.mean_cost()
        if full.any():
            masked = np.where(full, mean, np.inf)
            return int(np.argmin(masked))
        order = np.lexsort((mean, -rate))
        return int(order[0])

    def best_bid(self) -> float:
        """Grid mode only: the bid value at :meth:`best_bid_index`."""
        flat = np.asarray(self.bids, dtype=float).reshape(-1)
        if flat.size != self.shape[1]:
            raise ValueError(
                "best_bid() needs one bid per column; paired sweeps have "
                "per-trace bids — inspect report.cost directly instead"
            )
        return float(flat[self.best_bid_index()])
