"""The user-side bidding client (Figure 1).

The client wires together the paper's architecture: a *price monitor*
(the historical price distribution), the *bid calculator* (Sections 5–6),
and a *job monitor* (executing the bid against the market and watching
for interruptions).  In the paper the market is live EC2; here it is the
:mod:`repro.market` simulator replaying a held-out future trace — the
standard backtest protocol used by every Section 7 experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from ..errors import InfeasibleBidError, MarketError
from ..market.price_sources import TracePriceSource
from ..market.simulator import JobOutcome, SpotMarket
from ..traces.history import SpotPriceHistory
from .distcache import cached_distribution
from .distributions import EmpiricalPriceDistribution
from .heuristics import percentile_bid
from .onetime import optimal_onetime_bid
from .persistent import optimal_persistent_bid
from .types import (
    BidDecision,
    BidKind,
    DecisionRequest,
    DecisionResponse,
    DegradedDecision,
    JobSpec,
    Strategy,
)

__all__ = ["BidRunReport", "BiddingClient"]

@dataclass(frozen=True)
class BidRunReport:
    """A bid decision paired with its realized outcome."""

    decision: BidDecision
    outcome: JobOutcome

    @property
    def cost_prediction_error(self) -> float:
        """Realized minus predicted cost, in dollars."""
        return self.outcome.cost - self.decision.expected_cost


class BiddingClient:
    """Computes bids from history and runs them against future prices.

    Parameters
    ----------
    history:
        The observed spot-price history (Amazon exposed two months).
    ondemand_price:
        ``π̄`` for the instance type, used for feasibility ceilings.
    """

    def __init__(self, history: SpotPriceHistory, *, ondemand_price: float):
        if ondemand_price <= 0:
            raise ValueError(
                f"ondemand_price must be positive, got {ondemand_price!r}"
            )
        self.history = history
        self.ondemand_price = float(ondemand_price)
        self.distribution: EmpiricalPriceDistribution = cached_distribution(history)

    # -- bid calculation (Figure 1's "bid calculator") --------------------
    def decide(self, request: DecisionRequest) -> DecisionResponse:
        """Compute a bid for a :class:`~repro.core.types.DecisionRequest`.

        The request names the job, the strategy (``Strategy.ONE_TIME``,
        Prop. 4; ``Strategy.PERSISTENT``, Prop. 5; ``Strategy.PERCENTILE``,
        the Section 7 heuristic baseline; ``Strategy.PORTFOLIO``, the
        variance-capped on-demand/spot mix; ``Strategy.CVAR``, tail-risk
        bid selection over historical windows) and the degradation
        policy; the
        returned :class:`~repro.core.types.DecisionResponse` carries the
        :class:`~repro.core.types.BidDecision` plus serving metadata.

        With ``request.degrade`` set, an infeasible optimization (every
        bid violates the constraints — typical of fault-perturbed price
        distributions) falls back to the on-demand baseline: the response
        wraps a :class:`~repro.core.types.DegradedDecision` and names the
        degradation reason instead of raising
        :class:`~repro.errors.InfeasibleBidError`.

        Anything other than a :class:`~repro.core.types.DecisionRequest`
        raises :class:`TypeError`.
        """
        if not isinstance(request, DecisionRequest):
            raise TypeError(
                f"decide() takes a DecisionRequest, got "
                f"{type(request).__name__}; wrap the job as "
                f"DecisionRequest(job=job, strategy=...)"
            )
        return self.respond(request)

    def respond(self, request: DecisionRequest) -> DecisionResponse:
        """The single decision path shared by the library and ``repro.serve``.

        Dispatches ``request`` to the strategy optimizers and wraps the
        result; serving layers stamp table/cache metadata onto the
        response via :meth:`DecisionResponse.with_serving`.
        """
        job = request.job
        try:
            if request.strategy is Strategy.ONE_TIME:
                decision: BidDecision = optimal_onetime_bid(
                    self.distribution, job, ondemand_price=self.ondemand_price
                )
            elif request.strategy is Strategy.PERSISTENT:
                decision = optimal_persistent_bid(
                    self.distribution, job, ondemand_price=self.ondemand_price
                )
            elif request.strategy is Strategy.PORTFOLIO:
                # Deferred: repro.extensions imports repro.core.
                from ..extensions.portfolio import optimal_portfolio_bid

                decision = optimal_portfolio_bid(
                    self.distribution,
                    job,
                    ondemand_price=self.ondemand_price,
                    max_variance=request.max_variance,
                )
            elif request.strategy is Strategy.CVAR:
                from ..extensions.portfolio import cvar_bid

                decision = cvar_bid(
                    self.history,
                    job,
                    alpha=request.cvar_alpha,
                    ondemand_price=self.ondemand_price,
                )
            else:
                decision = percentile_bid(
                    self.distribution, job, percentile=request.percentile
                )
        except InfeasibleBidError as exc:
            if not request.degrade:
                raise
            degraded = self.degraded_decision(
                job, strategy=request.strategy, reason=str(exc)
            )
            return DecisionResponse(
                decision=degraded,
                request=request,
                cache_tier="compute",
                degradation_reason=degraded.reason,
            )
        return DecisionResponse(
            decision=decision, request=request, cache_tier="compute"
        )

    def degraded_decision(
        self,
        job: JobSpec,
        *,
        strategy: Strategy = Strategy.PERSISTENT,
        reason: str = "",
    ) -> DegradedDecision:
        """The explicit on-demand fallback: bid the on-demand price.

        A bid at ``π̄`` is always accepted in the paper's model (the spot
        price never exceeds on-demand), so the expected cost is the
        on-demand baseline and completion is certain.
        """
        return DegradedDecision(
            price=self.ondemand_price,
            kind=strategy.bid_kind,
            expected_cost=self.ondemand_cost(job),
            expected_completion_time=job.execution_time,
            expected_running_time=job.execution_time,
            expected_interruptions=0.0,
            acceptance_probability=1.0,
            reason=reason,
        )

    # -- execution (Figure 1's "job monitor") ------------------------------
    def execute(
        self,
        decision: Union[BidDecision, DecisionResponse],
        job: JobSpec,
        future: SpotPriceHistory,
        *,
        start_slot: int = 0,
        fallback_ondemand: bool = False,
    ) -> JobOutcome:
        """Run a bid against held-out future prices on the simulator.

        Accepts the :class:`~repro.core.types.BidDecision` directly or a
        :class:`~repro.core.types.DecisionResponse` from :meth:`decide`
        (the wrapped decision is executed).

        With ``fallback_ondemand`` a failed one-time request is assumed to
        be rerun from scratch on an on-demand instance (the paper notes
        users "may default to on-demand instances if the jobs are not
        completed"); the reported cost then includes both the wasted spot
        spend and the on-demand rerun.
        """
        if isinstance(decision, DecisionResponse):
            decision = decision.decision
        if future.slot_length != job.slot_length:
            raise MarketError(
                f"future trace slot length {future.slot_length!r} differs from "
                f"the job's slot length {job.slot_length!r}"
            )
        market = SpotMarket(
            TracePriceSource(future, start_slot=start_slot),
            slot_length=job.slot_length,
        )
        request_id = market.submit(
            bid_price=decision.price,
            work=job.execution_time,
            kind=decision.kind,
            recovery_time=(
                job.recovery_time if decision.kind is BidKind.PERSISTENT else 0.0
            ),
        )
        try:
            market.run_until_done(max_slots=future.n_slots - start_slot)
        except MarketError:
            # Trace ran out with the job unfinished; report the partial
            # outcome rather than guessing beyond the data.
            pass
        outcome = market.outcome(request_id)

        if fallback_ondemand and not outcome.completed:
            # The paper's noted remedy: rerun the whole job on demand.
            extra = self.ondemand_price * job.execution_time
            outcome = dataclasses.replace(outcome, cost=outcome.cost + extra)
        return outcome

    def backtest(
        self,
        job: JobSpec,
        future: SpotPriceHistory,
        *,
        strategy: Strategy = Strategy.PERSISTENT,
        percentile: float = 90.0,
        start_slot: int = 0,
        fallback_ondemand: bool = False,
    ) -> BidRunReport:
        """Decide and execute in one call; returns prediction and outcome."""
        response = self.respond(
            DecisionRequest(job=job, strategy=strategy, percentile=percentile)
        )
        outcome = self.execute(
            response.decision,
            job,
            future,
            start_slot=start_slot,
            fallback_ondemand=fallback_ondemand,
        )
        return BidRunReport(decision=response.decision, outcome=outcome)

    def ondemand_cost(self, job: JobSpec) -> float:
        """Baseline cost of the job on an on-demand instance."""
        return self.ondemand_price * job.execution_time
