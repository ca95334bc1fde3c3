"""Core value types shared across the bidding strategies.

These dataclasses carry the paper's notation (Table 1):

=========  ==================================================
``t_s``    job execution time without interruptions (hours)
``t_r``    recovery time per interruption (hours)
``t_o``    overhead time of splitting into sub-jobs (hours)
``t_k``    length of one market time slot (hours)
``p``      user bid price ($/hour)
``π̄``      on-demand price ($/hour)
=========  ==================================================
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

from ..constants import DEFAULT_SLOT_HOURS
from ..errors import PlanError, SpecError


class BidKind(enum.Enum):
    """The two spot request types offered by EC2 (Section 3.2)."""

    ONE_TIME = "one-time"
    PERSISTENT = "persistent"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Strategy(enum.Enum):
    """Bidding strategies understood by the client and sweep layers.

    ``ONE_TIME`` solves Prop. 4, ``PERSISTENT`` solves Prop. 5 and
    ``PERCENTILE`` is the Section 7 heuristic baseline.  ``PORTFOLIO``
    mixes on-demand and persistent spot capacity, minimizing expected
    cost under a variance cap; ``CVAR`` picks the bid minimizing the
    conditional value-at-risk of the realized sweep cost across
    historical windows.
    """

    ONE_TIME = "one-time"
    PERSISTENT = "persistent"
    PERCENTILE = "percentile"
    PORTFOLIO = "portfolio"
    CVAR = "cvar"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def bid_kind(self) -> BidKind:
        """The spot request type this strategy submits (all non-one-time
        strategies place persistent requests; PORTFOLIO's spot leg and
        CVAR's swept bid both survive interruptions)."""
        return BidKind.ONE_TIME if self is Strategy.ONE_TIME else BidKind.PERSISTENT

    @property
    def sweepable(self) -> bool:
        """Whether :func:`repro.sweep.engine.run_sweep` can simulate this
        strategy directly over a bid grid.  Selection strategies
        (PERCENTILE, PORTFOLIO, CVAR) pick a price first and then sweep
        it as ONE_TIME or PERSISTENT."""
        return self in (Strategy.ONE_TIME, Strategy.PERSISTENT)


def normalize_strategy(strategy: Strategy) -> Strategy:
    """Check that a strategy argument is a :class:`Strategy` member.

    Enum members pass through untouched; anything else, strings
    included, raises :class:`~repro.errors.SpecError` (a
    :class:`ValueError`).
    """
    if isinstance(strategy, Strategy):
        return strategy
    raise SpecError(
        f"unknown strategy {strategy!r}; use Strategy.ONE_TIME, "
        "Strategy.PERSISTENT, Strategy.PERCENTILE, Strategy.PORTFOLIO "
        "or Strategy.CVAR"
    )


@dataclass(frozen=True)
class JobSpec:
    """A single-instance job, as modeled in Section 5.

    Parameters
    ----------
    execution_time:
        ``t_s`` — time the job needs on an instance without interruptions,
        in hours.  Must be positive.
    recovery_time:
        ``t_r`` — extra running time needed to recover from one
        interruption, in hours.  Zero means the job checkpoints for free.
    slot_length:
        ``t_k`` — market time-slot length in hours (default: five minutes).
    """

    execution_time: float
    recovery_time: float = 0.0
    slot_length: float = DEFAULT_SLOT_HOURS

    def __post_init__(self) -> None:
        if not (self.execution_time > 0 and math.isfinite(self.execution_time)):
            raise SpecError(
                f"execution_time must be positive and finite, got {self.execution_time!r}"
            )
        if not (self.recovery_time >= 0 and math.isfinite(self.recovery_time)):
            raise SpecError(
                f"recovery_time must be non-negative and finite, got {self.recovery_time!r}"
            )
        if not (self.slot_length > 0 and math.isfinite(self.slot_length)):
            raise SpecError(
                f"slot_length must be positive and finite, got {self.slot_length!r}"
            )

    @property
    def slots_required(self) -> float:
        """``t_s / t_k`` — execution time measured in time slots."""
        return self.execution_time / self.slot_length

    @property
    def recovery_slots(self) -> float:
        """``t_r / t_k`` — recovery time measured in time slots."""
        return self.recovery_time / self.slot_length

    def with_recovery(self, recovery_time: float) -> "JobSpec":
        """Return a copy of this spec with a different recovery time."""
        return replace(self, recovery_time=recovery_time)


@dataclass(frozen=True)
class ParallelJobSpec:
    """A job split across ``num_instances`` equal sub-jobs (Section 6.1).

    Parameters
    ----------
    execution_time:
        ``t_s`` — the *total* execution time of the whole job on a single
        instance, in hours.
    num_instances:
        ``M`` — number of equal sub-jobs run on parallel spot instances.
    overhead_time:
        ``t_o`` — constant extra running time caused by splitting the job
        (message passing between sub-jobs), in hours.
    recovery_time, slot_length:
        As in :class:`JobSpec`.
    """

    execution_time: float
    num_instances: int
    overhead_time: float = 0.0
    recovery_time: float = 0.0
    slot_length: float = DEFAULT_SLOT_HOURS

    def __post_init__(self) -> None:
        if not (self.execution_time > 0 and math.isfinite(self.execution_time)):
            raise ValueError(
                f"execution_time must be positive and finite, got {self.execution_time!r}"
            )
        if not (isinstance(self.num_instances, int) and self.num_instances >= 1):
            raise ValueError(
                f"num_instances must be an integer >= 1, got {self.num_instances!r}"
            )
        if not (self.overhead_time >= 0 and math.isfinite(self.overhead_time)):
            raise ValueError(
                f"overhead_time must be non-negative and finite, got {self.overhead_time!r}"
            )
        if not (self.recovery_time >= 0 and math.isfinite(self.recovery_time)):
            raise ValueError(
                f"recovery_time must be non-negative and finite, got {self.recovery_time!r}"
            )
        if not (self.slot_length > 0 and math.isfinite(self.slot_length)):
            raise ValueError(
                f"slot_length must be positive and finite, got {self.slot_length!r}"
            )

    @property
    def effective_work(self) -> float:
        """``t_s + t_o − M·t_r`` — the numerator of eq. 17.

        This is the total running time the M instances would accumulate if
        no interruptions occurred beyond the one recovery budgeted per
        instance.  It must be positive for the paper's running-time formula
        to be meaningful.
        """
        return (
            self.execution_time
            + self.overhead_time
            - self.num_instances * self.recovery_time
        )

    @property
    def per_instance_work(self) -> float:
        """``(t_s + t_o)/M`` — work handed to each sub-job, in hours."""
        return (self.execution_time + self.overhead_time) / self.num_instances

    def as_single_instance(self) -> JobSpec:
        """Collapse to a single-instance :class:`JobSpec` (M = 1, no split)."""
        return JobSpec(
            execution_time=self.execution_time,
            recovery_time=self.recovery_time,
            slot_length=self.slot_length,
        )


@dataclass(frozen=True)
class MapReduceJobSpec:
    """A MapReduce job with one master and ``num_slaves`` slaves (§6.2).

    The master is placed as a one-time request (it must never be
    interrupted); the slaves are persistent requests sharing one bid price.
    Master and slaves may target different instance types, hence the two
    on-demand prices carried by the planner rather than this spec.
    """

    execution_time: float
    num_slaves: int
    overhead_time: float = 0.0
    recovery_time: float = 0.0
    slot_length: float = DEFAULT_SLOT_HOURS

    def __post_init__(self) -> None:
        if not (isinstance(self.num_slaves, int) and self.num_slaves >= 1):
            raise ValueError(
                f"num_slaves must be an integer >= 1, got {self.num_slaves!r}"
            )
        # Delegate the remaining validation to ParallelJobSpec's rules.
        self.slaves_spec  # noqa: B018 - validation side effect

    @property
    def slaves_spec(self) -> ParallelJobSpec:
        """The slave side of the job as a :class:`ParallelJobSpec`."""
        return ParallelJobSpec(
            execution_time=self.execution_time,
            num_instances=self.num_slaves,
            overhead_time=self.overhead_time,
            recovery_time=self.recovery_time,
            slot_length=self.slot_length,
        )

    def with_slaves(self, num_slaves: int) -> "MapReduceJobSpec":
        """Return a copy with a different slave count ``M``."""
        return replace(self, num_slaves=num_slaves)


@dataclass(frozen=True)
class BidDecision:
    """The output of a bid optimizer.

    Attributes
    ----------
    price:
        The bid price ``p*`` in $/hour.
    kind:
        Whether the bid is placed as a one-time or persistent request.
    expected_cost:
        The model-predicted total dollar cost of completing the job
        (Φ_so, Φ_sp or Φ_mp evaluated at ``price``).
    expected_completion_time:
        Predicted wall-clock time ``T`` from submission to completion,
        including idle time, in hours.  ``None`` when the model does not
        predict it (e.g. heuristic bids).
    expected_running_time:
        Predicted time actually spent running on the instance
        (``T·F(p)``), in hours.
    expected_interruptions:
        Predicted number of interruptions over the job's lifetime.
    acceptance_probability:
        ``F_π(p*)`` — probability the bid beats the spot price in a slot.
    """

    price: float
    kind: BidKind
    expected_cost: float
    expected_completion_time: Optional[float] = None
    expected_running_time: Optional[float] = None
    expected_interruptions: Optional[float] = None
    acceptance_probability: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.price >= 0 and math.isfinite(self.price)):
            raise ValueError(f"price must be non-negative and finite, got {self.price!r}")
        if not (self.expected_cost >= 0 and math.isfinite(self.expected_cost)):
            raise ValueError(
                f"expected_cost must be non-negative and finite, got {self.expected_cost!r}"
            )

    @property
    def degraded(self) -> bool:
        """True only on :class:`DegradedDecision` fallbacks."""
        return False


@dataclass(frozen=True)
class DegradedDecision(BidDecision):
    """A :class:`BidDecision` produced by graceful degradation.

    When every spot bid is infeasible (e.g. a fault-perturbed
    distribution violates the interruptibility condition at all
    admissible prices), the client can fall back to bidding the
    on-demand baseline instead of raising
    :class:`~repro.errors.InfeasibleBidError`.  The marker class keeps
    the fallback explicit: downstream code can branch on
    ``decision.degraded`` and ``reason`` records what went wrong.
    """

    reason: str = ""

    @property
    def degraded(self) -> bool:
        return True


@dataclass(frozen=True)
class PortfolioDecision(BidDecision):
    """A :class:`BidDecision` for the on-demand + spot portfolio strategy.

    ``price`` is the spot leg's persistent bid ($/hour); on-demand hours
    are bought at the quoted π̄ for ``spot_fraction``'s complement of the
    work.  ``expected_cost`` covers both legs.
    """

    #: Fraction of the execution time run on spot (1 − w in the split).
    spot_fraction: float = 0.0
    #: Var(paid price) of the blended payment stream, ($/hour)².
    price_variance: float = 0.0


@dataclass(frozen=True)
class CvarDecision(BidDecision):
    """A :class:`BidDecision` chosen by CVaR over swept historical costs.

    ``expected_cost`` is the mean realized cost across windows;
    ``cvar`` is the mean of the worst ``(1 − alpha)`` tail.
    """

    #: Tail level: CVaR averages the worst (1 − alpha) fraction of costs.
    alpha: float = 0.95
    #: CVaR_alpha of the realized sweep cost, dollars.
    cvar: float = 0.0
    #: Number of historical windows the bid was scored on.
    n_windows: int = 0


@dataclass(frozen=True)
class DecisionRequest:
    """One "what should I bid for this job?" question (Figure 1's input).

    The request form is the canonical way to ask
    :meth:`~repro.core.client.BiddingClient.decide` for a bid — batch
    callers and the :mod:`repro.serve` daemon build the same object, so
    their answers are comparable artifacts.

    Parameters
    ----------
    job:
        The :class:`JobSpec` to bid for.
    strategy:
        The bidding strategy, a :class:`Strategy` member.
    percentile:
        Heuristic percentile, only meaningful for
        :attr:`Strategy.PERCENTILE`.
    max_variance:
        Cap on the conditional price variance of the blended payment
        stream, only meaningful for :attr:`Strategy.PORTFOLIO`; ``None``
        leaves the portfolio unconstrained.
    cvar_alpha:
        Tail level for :attr:`Strategy.CVAR` (CVaR averages the worst
        ``1 − cvar_alpha`` fraction of historical window costs).
    degrade:
        With ``True``, an infeasible optimization falls back to the
        on-demand baseline (a :class:`DegradedDecision`) instead of
        raising :class:`~repro.errors.InfeasibleBidError`.
    instance_type:
        Optional name of the market the request is meant for.  The
        in-process client ignores it; the serve daemon answers a
        request naming another type than the one it serves with an
        error.
    """

    job: JobSpec
    strategy: Strategy = Strategy.PERSISTENT
    percentile: float = 90.0
    max_variance: Optional[float] = None
    cvar_alpha: float = 0.95
    degrade: bool = False
    instance_type: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", normalize_strategy(self.strategy))
        if not (0.0 <= self.percentile <= 100.0):
            raise SpecError(
                f"percentile must be within [0, 100], got {self.percentile!r}"
            )
        if self.max_variance is not None and not (
            self.max_variance >= 0.0 and math.isfinite(self.max_variance)
        ):
            raise SpecError(
                f"max_variance must be non-negative and finite, "
                f"got {self.max_variance!r}"
            )
        if not 0.0 < self.cvar_alpha < 1.0:
            raise SpecError(
                f"cvar_alpha must be within (0, 1), got {self.cvar_alpha!r}"
            )


@dataclass(frozen=True)
class DecisionResponse:
    """A :class:`BidDecision` plus the provenance serving attached to it.

    Batch decisions carry ``table_version=None`` / ``cache_tier=None``
    (computed inline from the client's own distribution); decisions
    answered by :mod:`repro.serve` record which bid-table version and
    cache tier produced them, and why the service degraded to the
    on-demand fallback if it did.  The decision's own numeric fields are
    exposed as passthrough properties so response objects read like the
    decisions they wrap.
    """

    decision: BidDecision
    request: DecisionRequest
    #: Version of the bid table that answered this request (serving only).
    table_version: Optional[str] = None
    #: Cache tier that produced the payload: ``"memory"``, ``"file"``,
    #: ``"table"`` or ``"compute"``; ``None`` for inline batch decisions.
    cache_tier: Optional[str] = None
    #: Why the service fell back to on demand (``None`` when it did not).
    degradation_reason: Optional[str] = None

    @property
    def price(self) -> float:
        return self.decision.price

    @property
    def kind(self) -> BidKind:
        return self.decision.kind

    @property
    def expected_cost(self) -> float:
        return self.decision.expected_cost

    @property
    def expected_completion_time(self) -> Optional[float]:
        return self.decision.expected_completion_time

    @property
    def expected_running_time(self) -> Optional[float]:
        return self.decision.expected_running_time

    @property
    def expected_interruptions(self) -> Optional[float]:
        return self.decision.expected_interruptions

    @property
    def acceptance_probability(self) -> Optional[float]:
        return self.decision.acceptance_probability

    @property
    def degraded(self) -> bool:
        return self.decision.degraded

    @property
    def strategy(self) -> Strategy:
        return self.request.strategy

    def with_serving(
        self,
        *,
        table_version: Optional[str] = None,
        cache_tier: Optional[str] = None,
        degradation_reason: Optional[str] = None,
    ) -> "DecisionResponse":
        """Copy of this response with serving provenance attached."""
        return replace(
            self,
            table_version=table_version,
            cache_tier=cache_tier,
            degradation_reason=degradation_reason,
        )


@dataclass(frozen=True)
class MapReducePlan:
    """A complete bidding plan for a MapReduce job (Section 6.2).

    Produced by :func:`repro.core.mapreduce.plan_master_slave`.
    """

    job: MapReduceJobSpec
    master_bid: BidDecision
    slave_bid: BidDecision
    #: Required master runtime implied by eq. 20's first constraint (hours).
    required_master_time: float
    #: Smallest slave count that makes eq. 20 feasible for this job.
    min_slaves: int

    @property
    def total_expected_cost(self) -> float:
        """Φ_so(p_m) + Φ_mp(p_v) — the objective of eq. 20."""
        return self.master_bid.expected_cost + self.slave_bid.expected_cost

    def __post_init__(self) -> None:
        if self.master_bid.kind is not BidKind.ONE_TIME:
            raise PlanError("master node must use a one-time request (Section 6.2)")
        if self.slave_bid.kind is not BidKind.PERSISTENT:
            raise PlanError("slave nodes must use persistent requests (Section 6.2)")
        if self.min_slaves < 1:
            raise PlanError(f"min_slaves must be >= 1, got {self.min_slaves}")
