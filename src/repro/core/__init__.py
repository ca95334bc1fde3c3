"""The paper's primary contribution: optimal spot-bidding strategies.

Public surface:

* :class:`~repro.core.types.JobSpec` and friends — job descriptions.
* :class:`~repro.core.distributions.EmpiricalPriceDistribution` — the
  price model a client builds from history.
* :func:`~repro.core.onetime.optimal_onetime_bid` — Prop. 4.
* :func:`~repro.core.persistent.optimal_persistent_bid` — Prop. 5.
* :func:`~repro.core.mapreduce.plan_master_slave` — Section 6.
* :class:`~repro.core.client.BiddingClient` — Figure 1's client loop.
"""

from .adaptive import AdaptiveBiddingClient, AdaptiveRunResult
from .client import BiddingClient, BidRunReport
from .fleet import (
    FleetAllocation,
    FleetOption,
    FleetPlan,
    FleetRunResult,
    plan_fleet,
    rank_fleet_options,
    run_fleet,
)
from .distributions import (
    EmpiricalPriceDistribution,
    PriceDistribution,
    TruncatedExponentialPriceDistribution,
    UniformPriceDistribution,
)
from .heuristics import percentile_bid, retrospective_best_price
from .mapreduce import (
    optimal_parallel_bid,
    plan_master_slave,
    plan_with_optimal_slaves,
)
from .onetime import optimal_onetime_bid
from .persistent import optimal_persistent_bid
from .distcache import (
    cached_distribution,
    clear_distribution_cache,
    distribution_cache_stats,
)
from .types import (
    BidDecision,
    DecisionRequest,
    DecisionResponse,
    DegradedDecision,
    BidKind,
    JobSpec,
    MapReduceJobSpec,
    MapReducePlan,
    ParallelJobSpec,
    Strategy,
    normalize_strategy,
)

__all__ = [
    "AdaptiveBiddingClient",
    "AdaptiveRunResult",
    "BiddingClient",
    "BidRunReport",
    "FleetAllocation",
    "FleetOption",
    "FleetPlan",
    "FleetRunResult",
    "plan_fleet",
    "rank_fleet_options",
    "run_fleet",
    "EmpiricalPriceDistribution",
    "PriceDistribution",
    "TruncatedExponentialPriceDistribution",
    "UniformPriceDistribution",
    "percentile_bid",
    "retrospective_best_price",
    "optimal_parallel_bid",
    "plan_master_slave",
    "plan_with_optimal_slaves",
    "optimal_onetime_bid",
    "optimal_persistent_bid",
    "cached_distribution",
    "clear_distribution_cache",
    "distribution_cache_stats",
    "BidDecision",
    "DecisionRequest",
    "DecisionResponse",
    "DegradedDecision",
    "BidKind",
    "JobSpec",
    "MapReduceJobSpec",
    "MapReducePlan",
    "ParallelJobSpec",
    "Strategy",
    "normalize_strategy",
]
