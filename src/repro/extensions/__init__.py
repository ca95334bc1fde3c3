"""Section 8 extensions, implemented: risk-averse bidding, temporally
correlated prices, collective (multi-user) bidding, dependent-task (DAG)
bidding, and the portfolio / CVaR workloads built on top.

Extensions that scan a candidate grid (risk, checkpointing, collective,
DAG, portfolio) evaluate it through the batched kernels in
:mod:`repro.extensions.kernels`, each held bitwise equal to its retained
scalar ``*_reference`` oracle by the tests and the bench.  Lag-1
persistence and spot-block pricing value one bid or one job and stay
scalar.
"""

from .collective import (
    CollectiveOutcome,
    CollectiveRound,
    StrategicClass,
    iterate_collective_bidding,
)
from .correlated import (
    autocorrelation,
    expected_interruptions_markov,
    interruption_reduction_factor,
    lag1_price_persistence,
)
from .checkpointing import (
    CheckpointPlan,
    CheckpointPolicy,
    effective_job,
    optimize_checkpoint_interval,
)
from .dag import (
    DagPlan,
    DagRunResult,
    TaskGraph,
    plan_dag,
    run_dag_on_trace,
)
from .forecasting import (
    Ar1Forecaster,
    EwmaForecaster,
    PriceForecaster,
    forecast_bid,
)
from .kernels import extension_kernel_pair
from .portfolio import (
    cvar_bid,
    cvar_from_costs,
    optimal_portfolio_bid,
    portfolio_frontier,
)
from .spot_blocks import (
    PurchasingOption,
    block_price,
    compare_purchasing_options,
)
from .risk import (
    conditional_price_variance,
    deadline_chance_bid,
    deadline_miss_probability,
    variance_bounded_bid,
)

__all__ = [
    "CollectiveOutcome",
    "CollectiveRound",
    "StrategicClass",
    "iterate_collective_bidding",
    "autocorrelation",
    "expected_interruptions_markov",
    "interruption_reduction_factor",
    "lag1_price_persistence",
    "CheckpointPlan",
    "CheckpointPolicy",
    "effective_job",
    "optimize_checkpoint_interval",
    "DagPlan",
    "DagRunResult",
    "TaskGraph",
    "plan_dag",
    "run_dag_on_trace",
    "Ar1Forecaster",
    "EwmaForecaster",
    "PriceForecaster",
    "forecast_bid",
    "extension_kernel_pair",
    "cvar_bid",
    "cvar_from_costs",
    "optimal_portfolio_bid",
    "portfolio_frontier",
    "PurchasingOption",
    "block_price",
    "compare_purchasing_options",
    "conditional_price_variance",
    "deadline_chance_bid",
    "deadline_miss_probability",
    "variance_bounded_bid",
]
