"""Design ablations for the choices DESIGN.md calls out.

Four studies, each isolating one modeling knob:

* :func:`beta_sweep` — the provider's utilization weight β: higher β
  lowers the optimal spot price (Section 4.1's observation "more weight
  on the utilization term leads to a lower spot price").
* :func:`recovery_sweep` — the recovery time t_r: the persistent bid and
  cost rise with t_r, crossing the one-time cost as jobs become
  effectively non-interruptible.
* :func:`slave_count_sweep` — the slave count M in eq. 18/19: completion
  time falls roughly as 1/M while expected cost stays nearly flat.
* :func:`temporal_texture` — i.i.d. vs copula-correlated vs renewal
  traces with identical marginals: correlation cuts the realized
  interruption rate, the paper's Section 8 prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..constants import seconds
from ..core import costs
from ..core.onetime import optimal_onetime_bid
from ..core.persistent import optimal_persistent_bid
from ..core.mapreduce import optimal_parallel_bid
from ..core.types import BidKind, DecisionRequest, JobSpec, ParallelJobSpec, Strategy
from ..errors import MarketError
from ..extensions.correlated import lag1_price_persistence
from ..market.price_sources import TracePriceSource
from ..market.simulator import SpotMarket
from ..provider.pricing import optimal_spot_price
from ..sweep import run_sweep
from ..traces.catalog import get_instance_type
from ..traces.generator import (
    generate_correlated_history,
    generate_equilibrium_history,
    generate_renewal_history,
    market_model_for,
)
from .common import ExperimentConfig, FULL_CONFIG, format_table

__all__ = [
    "BetaSweepResult",
    "RecoverySweepResult",
    "SlaveSweepResult",
    "TextureResult",
    "BillingResult",
    "ForecastResult",
    "CheckpointSweepResult",
    "beta_sweep",
    "recovery_sweep",
    "slave_count_sweep",
    "temporal_texture",
    "billing_comparison",
    "forecasting_comparison",
    "checkpoint_sweep",
    "AdaptiveResult",
    "FleetResult",
    "adaptive_rebidding",
    "fleet_allocation",
    "SchedulingResult",
    "scheduling_policy",
    "HistoryLengthResult",
    "history_length_sensitivity",
]


@dataclass(frozen=True)
class BetaSweepResult:
    betas: Tuple[float, ...]
    prices: Tuple[float, ...]

    def table(self) -> str:
        return format_table(
            ("beta", "optimal spot price"),
            [(f"{b:.3f}", f"{p:.5f}") for b, p in zip(self.betas, self.prices)],
        )

    @property
    def monotone_decreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.prices, self.prices[1:]))


def beta_sweep(
    *,
    demand: float = 50.0,
    pi_bar: float = 0.35,
    pi_min: float = 0.0315,
    betas: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6),
) -> BetaSweepResult:
    """Optimal spot price (eq. 3) as a function of β at fixed demand."""
    prices = tuple(
        optimal_spot_price(demand, beta, pi_bar, pi_min) for beta in betas
    )
    return BetaSweepResult(betas=betas, prices=prices)


@dataclass(frozen=True)
class RecoverySweepRow:
    recovery_seconds: float
    persistent_bid: float
    persistent_cost: float
    onetime_cost: float

    @property
    def persistent_wins(self) -> bool:
        return self.persistent_cost < self.onetime_cost


@dataclass(frozen=True)
class RecoverySweepResult:
    rows: List[RecoverySweepRow]

    def table(self) -> str:
        return format_table(
            ("t_r (s)", "persistent p*", "persistent $", "one-time $", "winner"),
            [
                (
                    f"{r.recovery_seconds:.0f}",
                    f"{r.persistent_bid:.4f}",
                    f"{r.persistent_cost:.4f}",
                    f"{r.onetime_cost:.4f}",
                    "persistent" if r.persistent_wins else "one-time",
                )
                for r in self.rows
            ],
        )

    @property
    def bids_monotone(self) -> bool:
        bids = [r.persistent_bid for r in self.rows]
        return all(a <= b + 1e-12 for a, b in zip(bids, bids[1:]))

    @property
    def crossover_seconds(self) -> float:
        """First t_r at which one-time becomes no worse than persistent
        (``inf`` if persistent wins everywhere swept)."""
        for r in self.rows:
            if not r.persistent_wins:
                return r.recovery_seconds
        return float("inf")


def recovery_sweep(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
    recovery_seconds: Tuple[float, ...] = (1, 5, 10, 30, 60, 120, 240, 290),
) -> RecoverySweepResult:
    """Sweep t_r on the analytic model; compare Φ_sp(p*) with Φ_so."""
    itype = get_instance_type(instance_type)
    model = market_model_for(itype)
    onetime = optimal_onetime_bid(
        model, JobSpec(1.0, slot_length=config.slot_length),
        ondemand_price=itype.on_demand_price,
    )
    rows = []
    for tr in recovery_seconds:
        job = JobSpec(1.0, seconds(tr), slot_length=config.slot_length)
        decision = optimal_persistent_bid(model, job)
        rows.append(
            RecoverySweepRow(
                recovery_seconds=tr,
                persistent_bid=decision.price,
                persistent_cost=decision.expected_cost,
                onetime_cost=onetime.expected_cost,
            )
        )
    return RecoverySweepResult(rows=rows)


@dataclass(frozen=True)
class SlaveSweepRow:
    num_slaves: int
    bid: float
    expected_cost: float
    expected_completion: float


@dataclass(frozen=True)
class SlaveSweepResult:
    rows: List[SlaveSweepRow]

    def table(self) -> str:
        return format_table(
            ("M", "p_v*", "expected $", "expected T (h)"),
            [
                (r.num_slaves, f"{r.bid:.4f}", f"{r.expected_cost:.4f}",
                 f"{r.expected_completion:.3f}")
                for r in self.rows
            ],
        )

    @property
    def completion_monotone(self) -> bool:
        times = [r.expected_completion for r in self.rows]
        return all(a >= b - 1e-9 for a, b in zip(times, times[1:]))


def slave_count_sweep(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "c3.4xlarge",
    execution_time: float = 8.0,
    max_slaves: int = 12,
) -> SlaveSweepResult:
    """Eq. 18/19 as M varies: wall-clock shrinks, cost stays near-flat."""
    itype = get_instance_type(instance_type)
    model = market_model_for(itype)
    rows = []
    for m in range(1, max_slaves + 1):
        job = ParallelJobSpec(
            execution_time=execution_time,
            num_instances=m,
            overhead_time=seconds(60),
            recovery_time=seconds(30),
            slot_length=config.slot_length,
        )
        if job.effective_work <= 0:
            break
        decision = optimal_parallel_bid(model, job)
        rows.append(
            SlaveSweepRow(
                num_slaves=m,
                bid=decision.price,
                expected_cost=decision.expected_cost,
                expected_completion=decision.expected_completion_time,
            )
        )
    return SlaveSweepResult(rows=rows)


@dataclass(frozen=True)
class TextureRow:
    texture: str
    lag1_persistence: float
    interruptions_per_run: float
    mean_cost: float


@dataclass(frozen=True)
class TextureResult:
    rows: List[TextureRow]

    def table(self) -> str:
        return format_table(
            ("trace texture", "lag-1 persistence", "interruptions/run", "mean $"),
            [
                (r.texture, f"{r.lag1_persistence:.3f}",
                 f"{r.interruptions_per_run:.2f}", f"{r.mean_cost:.4f}")
                for r in self.rows
            ],
        )

    @property
    def correlation_reduces_interruptions(self) -> bool:
        """Section 8's prediction: stickier prices → fewer interruptions."""
        by_name = {r.texture: r for r in self.rows}
        return (
            by_name["renewal"].interruptions_per_run
            <= by_name["iid"].interruptions_per_run
            and by_name["copula-0.95"].interruptions_per_run
            <= by_name["iid"].interruptions_per_run
        )


def temporal_texture(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
) -> TextureResult:
    """Run the same persistent bid on three temporal textures with the
    same marginal distribution and compare realized interruptions."""
    itype = get_instance_type(instance_type)
    history_rng = config.rng(8, 0)
    history = generate_equilibrium_history(
        itype, days=config.history_days, rng=history_rng,
        slot_length=config.slot_length,
    )
    dist = history.to_distribution()
    job = JobSpec(1.0, seconds(30), slot_length=config.slot_length)
    decision = optimal_persistent_bid(dist, job, ondemand_price=itype.on_demand_price)

    rows = []
    for texture in ("iid", "copula-0.95", "renewal"):
        rng = config.rng(8, 1, zlib_crc(texture))
        futures, persist = [], []
        for rep in range(config.repetitions):
            if texture == "iid":
                future = generate_equilibrium_history(
                    itype, days=config.future_days, rng=rng,
                    slot_length=config.slot_length,
                )
            elif texture == "copula-0.95":
                future = generate_correlated_history(
                    itype, days=config.future_days, rng=rng, correlation=0.95,
                    slot_length=config.slot_length,
                )
            else:
                future = generate_renewal_history(
                    itype, days=config.future_days, rng=rng,
                    floor_episode_hours=config.floor_episode_hours,
                    tail_episode_hours=config.tail_episode_hours,
                    slot_length=config.slot_length,
                )
            futures.append(future)
            persist.append(lag1_price_persistence(future.prices, decision.price))
        # One batched sweep replaces the per-repetition market loop.
        report = run_sweep(
            futures, decision.price, job, strategy=Strategy.PERSISTENT
        )
        ok = report.completed[:, 0]
        interruptions = report.interruptions[ok, 0]
        costs = report.cost[ok, 0]
        rows.append(
            TextureRow(
                texture=texture,
                lag1_persistence=float(np.mean(persist)),
                interruptions_per_run=float(np.mean(interruptions)) if interruptions.size else float("nan"),
                mean_cost=float(np.mean(costs)) if costs.size else float("nan"),
            )
        )
    return TextureResult(rows=rows)


def zlib_crc(text: str) -> int:
    """Stable small integer from a string (process-hash-safe)."""
    import zlib

    return zlib.crc32(text.encode())


@dataclass(frozen=True)
class BillingRow:
    policy: str
    mean_cost: float
    completed: int
    repetitions: int


@dataclass(frozen=True)
class BillingResult:
    rows: List[BillingRow]

    def table(self) -> str:
        return format_table(
            ("billing policy", "mean $", "completed"),
            [
                (r.policy, f"{r.mean_cost:.4f}", f"{r.completed}/{r.repetitions}")
                for r in self.rows
            ],
        )

    @property
    def hourly_premium(self) -> float:
        """Hourly cost over per-slot cost (EC2's rounding is never free
        for jobs the user terminates)."""
        by = {r.policy: r.mean_cost for r in self.rows}
        return by["hourly"] / by["per-slot"] - 1.0


def billing_comparison(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
    execution_time: float = 1.5,
) -> BillingResult:
    """The paper's per-slot cost model vs EC2's 2014 hourly billing.

    The same persistent bid runs on identical traces under both
    policies; whole-hour rounding (charged on completion, waived on
    provider interruption) makes the hourly bill at least the per-slot
    bill for completed runs, quantifying how conservative the paper's
    cost model is.
    """
    from ..market.billing import HourlyBilling
    from ..market.price_sources import TracePriceSource
    from ..market.simulator import SpotMarket
    from .common import calm_start_slot, future_trace, history_trace

    itype = get_instance_type(instance_type)
    history = history_trace(itype, config, 90)
    dist = history.to_distribution()
    job = JobSpec(execution_time, seconds(30), slot_length=config.slot_length)
    decision = optimal_persistent_bid(dist, job)

    # Both policies run on identical traces and start slots (the seed
    # re-derived them per policy from the same substream).
    rng = config.rng(12, 1)
    futures, starts = [], []
    for rep in range(config.repetitions):
        future = future_trace(itype, config, 91, rep)
        futures.append(future)
        starts.append(calm_start_slot(rng, future))

    rows = []

    # Per-slot billing is exactly the sweep kernels' cost model.
    report = run_sweep(
        futures, decision.price, job,
        strategy=Strategy.PERSISTENT, start_slots=starts,
    )
    ok = report.completed[:, 0]
    rows.append(
        BillingRow(
            policy="per-slot",
            mean_cost=float(np.mean(report.cost[ok, 0])),
            completed=int(np.count_nonzero(ok)),
            repetitions=config.repetitions,
        )
    )

    # Hourly rounding needs the full market engine's billing hooks.
    costs, completed = [], 0
    for future, start in zip(futures, starts):
        market = SpotMarket(
            TracePriceSource(future, start_slot=start),
            slot_length=config.slot_length,
            billing_factory=HourlyBilling,
        )
        rid = market.submit(
            bid_price=decision.price,
            work=job.execution_time,
            kind=BidKind.PERSISTENT,
            recovery_time=job.recovery_time,
        )
        try:
            market.run_until_done(max_slots=future.n_slots)
        except MarketError:
            # Trace ran out with the job unfinished; it counts as not
            # completed.
            pass
        outcome = market.outcome(rid)
        if outcome.completed:
            completed += 1
            costs.append(outcome.cost)
    rows.append(
        BillingRow(
            policy="hourly",
            mean_cost=float(np.mean(costs)),
            completed=completed,
            repetitions=config.repetitions,
        )
    )
    return BillingResult(rows=rows)


@dataclass(frozen=True)
class ForecastRow:
    forecaster: str
    bid: float
    mean_cost: float
    mean_completion: float
    completed: int
    repetitions: int


@dataclass(frozen=True)
class ForecastResult:
    rows: List[ForecastRow]

    def table(self) -> str:
        return format_table(
            ("forecaster", "bid", "mean $", "mean T (h)", "completed"),
            [
                (
                    r.forecaster, f"{r.bid:.4f}", f"{r.mean_cost:.4f}",
                    f"{r.mean_completion:.2f}", f"{r.completed}/{r.repetitions}",
                )
                for r in self.rows
            ],
        )

    def cost_of(self, name: str) -> float:
        for r in self.rows:
            if r.forecaster == name:
                return r.mean_cost
        raise KeyError(name)


def forecasting_comparison(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
) -> ForecastResult:
    """Stationary-ECDF bids vs EWMA and AR(1) forecast-based bids (Section 5).

    The paper argues forecasting buys little because autocorrelation dies
    quickly at the horizons jobs need; this ablation runs all three on
    identical sticky futures.
    """
    from ..extensions.forecasting import Ar1Forecaster, EwmaForecaster, forecast_bid
    from .common import calm_start_slot, future_trace, history_trace
    from ..core.client import BiddingClient

    itype = get_instance_type(instance_type)
    history = history_trace(itype, config, 92)
    client = BiddingClient(history, ondemand_price=itype.on_demand_price)
    job = JobSpec(1.0, seconds(30), slot_length=config.slot_length)

    decisions = {
        "stationary-ecdf": client.respond(
            DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
        ).decision,
        "ewma": forecast_bid(EwmaForecaster(), history, job),
        "ar1": forecast_bid(Ar1Forecaster(), history, job),
    }
    # The seed re-derived identical futures and start slots per
    # forecaster from a re-seeded substream; here every forecaster is one
    # bid column of a single sweep over that shared trace stack.
    rng = config.rng(13, 1)
    futures, starts = [], []
    for rep in range(config.repetitions):
        future = future_trace(itype, config, 93, rep)
        futures.append(future)
        starts.append(calm_start_slot(rng, future))
    report = run_sweep(
        futures,
        [decision.price for decision in decisions.values()],
        job,
        strategy=Strategy.PERSISTENT,
        start_slots=starts,
    )
    rows = []
    for j, (name, decision) in enumerate(decisions.items()):
        ok = report.completed[:, j]
        costs = report.cost[ok, j]
        times = report.completion_time[ok, j]
        rows.append(
            ForecastRow(
                forecaster=name,
                bid=decision.price,
                mean_cost=float(np.mean(costs)) if costs.size else float("nan"),
                mean_completion=float(np.mean(times)) if times.size else float("nan"),
                completed=int(np.count_nonzero(ok)),
                repetitions=config.repetitions,
            )
        )
    return ForecastResult(rows=rows)


@dataclass(frozen=True)
class CheckpointRow:
    interval_minutes: float
    recovery_seconds: float
    bid: float
    expected_cost: float
    chosen: bool


@dataclass(frozen=True)
class CheckpointSweepResult:
    rows: List[CheckpointRow]

    def table(self) -> str:
        return format_table(
            ("interval (min)", "t_r (s)", "bid", "expected $", "chosen"),
            [
                (
                    f"{r.interval_minutes:.1f}", f"{r.recovery_seconds:.0f}",
                    f"{r.bid:.4f}", f"{r.expected_cost:.4f}",
                    "*" if r.chosen else "",
                )
                for r in self.rows
            ],
        )

    @property
    def chosen_interval_minutes(self) -> float:
        for r in self.rows:
            if r.chosen:
                return r.interval_minutes
        raise ValueError("no chosen row")

    @property
    def interior_optimum(self) -> bool:
        """The best interval is neither the smallest nor largest swept."""
        intervals = [r.interval_minutes for r in self.rows]
        return min(intervals) < self.chosen_interval_minutes < max(intervals)


def checkpoint_sweep(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
    execution_time: float = 8.0,
) -> CheckpointSweepResult:
    """Joint checkpoint-interval and bid optimization.

    Frequent checkpoints shrink t_r (Prop. 5 then bids lower) but inflate
    the execution time; the sweep exposes the interior optimum found by
    :func:`repro.extensions.checkpointing.optimize_checkpoint_interval`.
    """
    from ..extensions.checkpointing import (
        CheckpointPolicy,
        best_capped_bid,
        effective_job,
        optimize_checkpoint_interval,
    )

    itype = get_instance_type(instance_type)
    model = market_model_for(itype)
    job = JobSpec(execution_time, slot_length=config.slot_length)
    # A risk-policy bid cap at the 90th percentile: without one, bidding
    # the market ceiling suppresses interruptions entirely and "never
    # checkpoint" trivially wins (see extensions.checkpointing).
    cap = model.ppf(0.90)
    intervals = [1 / 60, 2 / 60, 5 / 60, 10 / 60, 0.5, 1.0, 2.0, 4.0, 8.0]
    best = optimize_checkpoint_interval(
        model, job, candidate_intervals=intervals, max_bid=cap
    )
    from ..errors import InfeasibleBidError

    rows = []
    for interval in intervals:
        policy = CheckpointPolicy(interval=interval)
        candidate = effective_job(job, policy)
        try:
            decision = best_capped_bid(model, candidate, cap)
        except InfeasibleBidError:
            # Under the bid cap, long intervals make t_r violate eq. 14
            # at every admissible price — exactly why one checkpoints.
            continue
        rows.append(
            CheckpointRow(
                interval_minutes=interval * 60.0,
                recovery_seconds=policy.recovery_time * 3600.0,
                bid=decision.price,
                expected_cost=decision.expected_cost,
                chosen=math.isclose(interval, best.policy.interval, rel_tol=1e-9),
            )
        )
    return CheckpointSweepResult(rows=rows)


@dataclass(frozen=True)
class AdaptiveRow:
    client: str
    completed: int
    repetitions: int
    mean_cost: float
    mean_completion: float
    mean_rebids: float


@dataclass(frozen=True)
class AdaptiveResult:
    rows: List[AdaptiveRow]

    def table(self) -> str:
        return format_table(
            ("client", "completed", "mean $", "mean T (h)", "rebids/run"),
            [
                (
                    r.client, f"{r.completed}/{r.repetitions}",
                    f"{r.mean_cost:.4f}" if not math.isnan(r.mean_cost) else "n/a",
                    f"{r.mean_completion:.2f}" if not math.isnan(r.mean_completion) else "n/a",
                    f"{r.mean_rebids:.1f}",
                )
                for r in self.rows
            ],
        )

    def row(self, client: str) -> AdaptiveRow:
        for r in self.rows:
            if r.client == client:
                return r
        raise KeyError(client)

    @property
    def adaptive_completes_more(self) -> bool:
        return self.row("adaptive").completed >= self.row("static").completed


def adaptive_rebidding(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
    floor_multiplier: float = 2.5,
) -> AdaptiveResult:
    """Static vs adaptive bidding across a price-regime shift.

    The price floor jumps by ``floor_multiplier`` six hours into the
    future trace.  A static persistent bid computed pre-shift sits below
    the new floor and idles forever; the adaptive client re-estimates
    from the rolling window and re-bids above it.
    """
    from ..core.adaptive import AdaptiveBiddingClient
    from ..traces.generator import (
        generate_equilibrium_history,
        generate_regime_shift_history,
    )

    itype = get_instance_type(instance_type)
    job = JobSpec(4.0, seconds(30), slot_length=config.slot_length)
    client = AdaptiveBiddingClient(
        window_hours=24.0, rebid_interval_slots=12, rebid_threshold=0.02
    )
    rows = []
    for label, adaptive in (("static", False), ("adaptive", True)):
        rng = config.rng(14, int(adaptive))
        costs_, times, rebids, completed = [], [], [], 0
        for rep in range(config.repetitions):
            hist_rng = config.rng(14, 2, rep)
            history = generate_equilibrium_history(
                itype, days=20, rng=hist_rng, slot_length=config.slot_length
            )
            future = generate_regime_shift_history(
                itype, days=config.future_days, rng=hist_rng,
                shift_hour=1.0, floor_multiplier=floor_multiplier,
                slot_length=config.slot_length,
            )
            result = client.run(job, history, future, adaptive=adaptive)
            rebids.append(result.rebids)
            if result.completed:
                completed += 1
                costs_.append(result.total_cost)
                times.append(result.completion_time)
        rows.append(
            AdaptiveRow(
                client=label,
                completed=completed,
                repetitions=config.repetitions,
                mean_cost=float(np.mean(costs_)) if costs_ else float("nan"),
                mean_completion=float(np.mean(times)) if times else float("nan"),
                mean_rebids=float(np.mean(rebids)),
            )
        )
    return AdaptiveResult(rows=rows)


@dataclass(frozen=True)
class FleetRow:
    strategy: str
    types_used: int
    expected_cost: float
    mean_cost: float
    mean_completion: float
    completed: int
    repetitions: int


@dataclass(frozen=True)
class FleetResult:
    rows: List[FleetRow]
    ranking_table: str

    def table(self) -> str:
        return format_table(
            ("strategy", "types", "expected $", "mean $", "mean T (h)", "completed"),
            [
                (
                    r.strategy, r.types_used, f"{r.expected_cost:.4f}",
                    f"{r.mean_cost:.4f}", f"{r.mean_completion:.2f}",
                    f"{r.completed}/{r.repetitions}",
                )
                for r in self.rows
            ],
        )

    def row(self, strategy: str) -> FleetRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise KeyError(strategy)


def fleet_allocation(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    candidate_types: Tuple[str, ...] = (
        "c3.xlarge", "c3.2xlarge", "c3.4xlarge", "r3.xlarge", "r3.2xlarge",
    ),
    work_vcpu_hours: float = 64.0,
) -> FleetResult:
    """Spot-fleet-style allocation across instance types.

    Compares putting the whole workload on the cheapest type against
    diversifying over the three cheapest, on per-type sticky futures.
    """
    from ..core.fleet import plan_fleet, rank_fleet_options, run_fleet
    from .common import future_trace, history_trace

    histories = {}
    for name in candidate_types:
        history = history_trace(name, config, 95)
        histories[name] = history
    ranking = rank_fleet_options(
        histories, work_vcpu_hours=work_vcpu_hours, recovery_time=seconds(30)
    )
    ranking_table = format_table(
        ("type", "bid", "$ / vCPU-hour", "on-demand $/vCPU-h"),
        [
            (
                o.instance_type.name, f"{o.decision.price:.4f}",
                f"{o.cost_per_vcpu_hour:.5f}",
                f"{o.ondemand_cost_per_vcpu_hour:.5f}",
            )
            for o in ranking
        ],
    )

    rows = []
    for strategy in ("cheapest", "diversified"):
        plan = plan_fleet(
            histories, work_vcpu_hours=work_vcpu_hours,
            recovery_time=seconds(30), strategy=strategy, max_types=3,
        )
        rng = config.rng(15, zlib_crc(strategy))
        costs_, times, completed = [], [], 0
        for rep in range(config.repetitions):
            futures = {}
            for alloc in plan.allocations:
                fut = future_trace(alloc.instance_type.name, config, 96, rep)
                futures[alloc.instance_type.name] = fut
            result = run_fleet(plan, futures)
            if result.completed:
                completed += 1
                costs_.append(result.total_cost)
                times.append(result.completion_time)
        rows.append(
            FleetRow(
                strategy=strategy,
                types_used=len(plan.allocations),
                expected_cost=plan.total_expected_cost,
                mean_cost=float(np.mean(costs_)) if costs_ else float("nan"),
                mean_completion=float(np.mean(times)) if times else float("nan"),
                completed=completed,
                repetitions=config.repetitions,
            )
        )
    return FleetResult(rows=rows, ranking_table=ranking_table)


@dataclass(frozen=True)
class SchedulingRow:
    policy: str
    completed: int
    repetitions: int
    mean_completion: float
    mean_cost: float
    mean_lost_work: float


@dataclass(frozen=True)
class SchedulingResult:
    rows: List[SchedulingRow]

    def table(self) -> str:
        return format_table(
            ("policy", "completed", "mean T (h)", "mean $", "lost work (h)"),
            [
                (
                    r.policy, f"{r.completed}/{r.repetitions}",
                    f"{r.mean_completion:.2f}", f"{r.mean_cost:.4f}",
                    f"{r.mean_lost_work:.3f}",
                )
                for r in self.rows
            ],
        )

    def row(self, policy: str) -> SchedulingRow:
        for r in self.rows:
            if r.policy == policy:
                return r
        raise KeyError(policy)


def scheduling_policy(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "c3.4xlarge",
    total_work: float = 8.0,
    num_workers: int = 4,
) -> SchedulingResult:
    """Sub-job pinning (the paper's model) vs Hadoop task stealing.

    Both run the same map work with the same bid on the same traces.
    The pinned policy checkpoints sub-jobs (paying t_r per resume); the
    task pool loses in-flight tasks but reassigns freely.  On spiky
    traces the two trade recovery overhead against lost work.
    """
    from ..core.types import BidKind
    from ..mapreduce.tasks import TaskPool, run_task_pool_on_trace
    from ..market.price_sources import TracePriceSource
    from ..market.simulator import SpotMarket
    from ..traces.generator import generate_renewal_history
    from .common import history_trace

    itype = get_instance_type(instance_type)
    history = history_trace(itype, config, 97)
    dist = history.to_distribution()
    surrogate = JobSpec(
        total_work / num_workers, seconds(30), slot_length=config.slot_length
    )
    bid = optimal_persistent_bid(dist, surrogate).price

    # Paired runs on deliberately *spiky* futures (short episodes, random
    # starts): the policies only differ when interruptions actually
    # happen, so this ablation stresses that regime rather than the calm
    # one the Section 7 experiments model.
    rng = config.rng(16, 0)
    futures, starts = [], []
    for rep in range(config.repetitions):
        futures.append(
            generate_renewal_history(
                itype, days=config.future_days, rng=config.rng(16, 2, rep),
                floor_episode_hours=2.0, tail_episode_hours=0.5,
                slot_length=config.slot_length,
            )
        )
        starts.append(int(rng.integers(0, 288)))

    # The pinned sub-jobs are identical independent requests, so one
    # sweep lane stands in for all ``num_workers`` of them.
    report = run_sweep(
        futures, bid, surrogate,
        strategy=Strategy.PERSISTENT, start_slots=starts,
    )
    ok = report.completed[:, 0]
    pinned = {
        "costs": list(num_workers * report.cost[ok, 0]),
        "times": list(report.completion_time[ok, 0]),
        "completed": int(np.count_nonzero(ok)),
    }

    pooled = {"costs": [], "times": [], "completed": 0, "lost": []}
    for future, start in zip(futures, starts):
        pool = TaskPool(total_work=total_work, num_tasks=num_workers * 8)
        result = run_task_pool_on_trace(
            pool, future, num_workers=num_workers, bid=bid, start_slot=start
        )
        pooled["lost"].append(result.lost_work)
        if result.completed:
            pooled["completed"] += 1
            pooled["times"].append(result.completion_time)
            pooled["costs"].append(result.cost)

    rows = [
        SchedulingRow(
            policy="pinned-subjobs",
            completed=pinned["completed"],
            repetitions=config.repetitions,
            mean_completion=float(np.mean(pinned["times"])) if pinned["times"] else float("nan"),
            mean_cost=float(np.mean(pinned["costs"])) if pinned["costs"] else float("nan"),
            mean_lost_work=0.0,
        ),
        SchedulingRow(
            policy="task-pool",
            completed=pooled["completed"],
            repetitions=config.repetitions,
            mean_completion=float(np.mean(pooled["times"])) if pooled["times"] else float("nan"),
            mean_cost=float(np.mean(pooled["costs"])) if pooled["costs"] else float("nan"),
            mean_lost_work=float(np.mean(pooled["lost"])),
        ),
    ]
    return SchedulingResult(rows=rows)


@dataclass(frozen=True)
class HistoryLengthRow:
    history_days: float
    mean_bid: float
    bid_std: float
    mean_cost: float
    completed: int
    repetitions: int


@dataclass(frozen=True)
class HistoryLengthResult:
    rows: List[HistoryLengthRow]

    def table(self) -> str:
        return format_table(
            ("history (days)", "mean bid", "bid std", "mean $", "completed"),
            [
                (
                    f"{r.history_days:g}", f"{r.mean_bid:.4f}",
                    f"{r.bid_std:.5f}", f"{r.mean_cost:.4f}",
                    f"{r.completed}/{r.repetitions}",
                )
                for r in self.rows
            ],
        )

    @property
    def bid_noise_shrinks_with_history(self) -> bool:
        """More history → more stable bid estimates."""
        stds = [r.bid_std for r in self.rows]
        return stds[-1] <= stds[0] + 1e-12


def history_length_sensitivity(
    config: ExperimentConfig = FULL_CONFIG,
    *,
    instance_type: str = "r3.xlarge",
    day_grid: Tuple[float, ...] = (3.0, 7.0, 15.0, 30.0, 60.0),
) -> HistoryLengthResult:
    """How much price history does a bid actually need?

    The paper uses the full two-month window Amazon exposed.  This
    ablation refits the persistent bid from shorter histories and
    backtests each on common futures: short windows estimate the tail
    quantiles noisily (bid variance up), but even a week captures the
    floor-plus-tail shape well enough to keep realized costs flat —
    quantifying how much of the 60-day window is actually load-bearing.
    """
    from ..core.client import BiddingClient
    from ..traces.generator import generate_equilibrium_history
    from .common import calm_start_slot, future_trace

    itype = get_instance_type(instance_type)
    job = JobSpec(1.0, seconds(30), slot_length=config.slot_length)
    rows = []
    for days in day_grid:
        rng = config.rng(17, int(days * 10))
        bids, futures, starts = [], [], []
        for rep in range(config.repetitions):
            hist_rng = config.rng(17, 1, rep, int(days * 10))
            history = generate_equilibrium_history(
                itype, days=days, rng=hist_rng, slot_length=config.slot_length
            )
            client = BiddingClient(
                history, ondemand_price=itype.on_demand_price
            )
            decision = client.respond(
                DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
            ).decision
            bids.append(decision.price)
            future = future_trace(itype, config, 99, rep)
            futures.append(future)
            starts.append(calm_start_slot(rng, future))
        # Each repetition's refit bid runs only on its own future trace:
        # a paired (zipped) sweep rather than the full grid.
        report = run_sweep(
            futures, bids, job,
            strategy=Strategy.PERSISTENT, start_slots=starts, pair_bids=True,
        )
        ok = report.completed[:, 0]
        costs_ = report.cost[ok, 0]
        rows.append(
            HistoryLengthRow(
                history_days=days,
                mean_bid=float(np.mean(bids)),
                bid_std=float(np.std(bids, ddof=1)) if len(bids) > 1 else 0.0,
                mean_cost=float(np.mean(costs_)) if costs_.size else float("nan"),
                completed=int(np.count_nonzero(ok)),
                repetitions=config.repetitions,
            )
        )
    return HistoryLengthResult(rows=rows)
