"""repro — a reproduction of "How to Bid the Cloud" (SIGCOMM 2015).

The library has three layers:

* ``repro.core`` — the paper's contribution: optimal spot-bidding
  strategies for one-time, persistent and MapReduce jobs (Sections 5–6)
  plus the Figure 1 bidding client.
* ``repro.provider`` — the Section 4 provider model: revenue-maximizing
  spot prices, queue stability, the equilibrium price distribution, and
  the Figure 3 fitting procedure.
* Substrates — ``repro.traces`` (instance catalog, price histories),
  ``repro.market`` (the discrete-time spot-market simulator standing in
  for live EC2), ``repro.sweep`` (batched bid×trace backtests) and
  ``repro.mapreduce`` (master/slave cluster runner).

Quickstart::

    import numpy as np
    from repro import (JobSpec, BiddingClient, Strategy, run_sweep,
                       generate_equilibrium_history, get_instance_type,
                       seconds)

    rng = np.random.default_rng(7)
    itype = get_instance_type("r3.xlarge")
    history = generate_equilibrium_history(itype, days=60, rng=rng)
    future = generate_equilibrium_history(itype, days=7, rng=rng)

    client = BiddingClient(history, ondemand_price=itype.on_demand_price)
    job = JobSpec(execution_time=1.0, recovery_time=seconds(30))
    report = client.backtest(job, future, strategy=Strategy.PERSISTENT)
    print(report.decision.price, report.outcome.cost)

    # Evaluate a whole bid grid against the future trace in one shot:
    grid = run_sweep(future, np.linspace(0.02, 0.2, 64), job)
    print(grid.best_bid(), grid.completion_rate())
"""

from .constants import DEFAULT_SLOT_HOURS, minutes, seconds
from .core import (
    AdaptiveBiddingClient,
    BidDecision,
    BiddingClient,
    BidKind,
    BidRunReport,
    DecisionRequest,
    DecisionResponse,
    DegradedDecision,
    EmpiricalPriceDistribution,
    FleetPlan,
    JobSpec,
    MapReduceJobSpec,
    MapReducePlan,
    ParallelJobSpec,
    PriceDistribution,
    Strategy,
    normalize_strategy,
    optimal_onetime_bid,
    optimal_parallel_bid,
    optimal_persistent_bid,
    percentile_bid,
    plan_fleet,
    plan_master_slave,
    plan_with_optimal_slaves,
    rank_fleet_options,
    retrospective_best_price,
    run_fleet,
)
from .errors import (
    CatalogError,
    DistributionError,
    FaultError,
    FittingError,
    InfeasibleBidError,
    MarketError,
    PlanError,
    ReproError,
    SpecError,
    SweepExecutionError,
    TraceError,
)
from .market import OutcomeStats, SpotMarket, TracePriceSource
from .provider import EquilibriumPriceModel, ProviderSimulation
from .resilience import (
    ChaosReport,
    FaultInjector,
    FaultSpec,
    PricePlateau,
    PriceSpike,
    RevocationStorm,
    SlotDropout,
    SlotDuplication,
    TraceTruncation,
    default_fault_suite,
    run_chaos,
)
from .scheduler import ItemFailure, SweepJournal
from .sweep import SweepCounters, SweepReport, run_sweep
from .traces import (
    SpotPriceHistory,
    generate_correlated_history,
    generate_equilibrium_history,
    generate_provider_history,
    generate_regime_shift_history,
    generate_renewal_history,
    get_instance_type,
    market_model_for,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SLOT_HOURS",
    "minutes",
    "seconds",
    "AdaptiveBiddingClient",
    "BidDecision",
    "BiddingClient",
    "FleetPlan",
    "plan_fleet",
    "rank_fleet_options",
    "run_fleet",
    "BidKind",
    "BidRunReport",
    "DecisionRequest",
    "DecisionResponse",
    "DegradedDecision",
    "EmpiricalPriceDistribution",
    "JobSpec",
    "MapReduceJobSpec",
    "MapReducePlan",
    "ParallelJobSpec",
    "PriceDistribution",
    "Strategy",
    "normalize_strategy",
    "optimal_onetime_bid",
    "optimal_parallel_bid",
    "optimal_persistent_bid",
    "percentile_bid",
    "plan_master_slave",
    "plan_with_optimal_slaves",
    "retrospective_best_price",
    "CatalogError",
    "DistributionError",
    "FaultError",
    "FittingError",
    "InfeasibleBidError",
    "MarketError",
    "PlanError",
    "ReproError",
    "SpecError",
    "SweepExecutionError",
    "TraceError",
    "OutcomeStats",
    "SpotMarket",
    "TracePriceSource",
    "ChaosReport",
    "FaultInjector",
    "FaultSpec",
    "ItemFailure",
    "PricePlateau",
    "PriceSpike",
    "RevocationStorm",
    "SlotDropout",
    "SlotDuplication",
    "SweepJournal",
    "TraceTruncation",
    "default_fault_suite",
    "run_chaos",
    "SweepCounters",
    "SweepReport",
    "run_sweep",
    "EquilibriumPriceModel",
    "ProviderSimulation",
    "SpotPriceHistory",
    "generate_correlated_history",
    "generate_equilibrium_history",
    "generate_provider_history",
    "generate_regime_shift_history",
    "generate_renewal_history",
    "get_instance_type",
    "market_model_for",
    "__version__",
]
