"""The shared per-run outcome record used across simulation backends.

Three backends report the same statistics for one spot request run: the
full :class:`~repro.market.simulator.SpotMarket` engine (via
:meth:`~repro.market.simulator.JobOutcome.to_stats`), the scalar
:mod:`~repro.market.fastpath` oracle, and the batched
:mod:`repro.sweep` kernels (via
:meth:`~repro.sweep.report.SweepReport.cell`).  :class:`OutcomeStats`
is that common record, so results from any backend are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OutcomeStats"]


@dataclass(frozen=True)
class OutcomeStats:
    """Observed statistics of one simulated spot request run.

    Field names and order match the engine's
    :class:`~repro.market.simulator.JobOutcome` accounting fields; times
    are in hours and costs in dollars.
    """

    completed: bool
    cost: float
    completion_time: float  #: NaN when not completed
    running_time: float
    idle_time: float
    recovery_time_used: float
    interruptions: int

    @property
    def charged_price_per_hour(self) -> float:
        """Mean price charged per running hour; 0 when the job never ran."""
        if self.running_time <= 0.0:
            return 0.0
        return self.cost / self.running_time
