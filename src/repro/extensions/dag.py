"""Dependent-task bidding (Section 8, "Task dependence").

Some tasks in a job cannot start until others finish.  The paper's
prescription: "bid on these tasks only after the tasks that they depend
on have been completed.  Thus, we will not bid on idle tasks that are
waiting for other tasks to finish."  This module implements exactly that
staged protocol over a task DAG:

* :func:`plan_dag` — per-task optimal persistent bids plus a critical-
  path prediction of the job's expected completion time and cost.
* :func:`run_dag_on_trace` — execute the staged protocol on the market
  simulator: each task's spot request is submitted the moment its last
  dependency completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core import costs
from ..core.persistent import (
    _feasible_lower_bound,
    candidate_prices,
    optimal_persistent_bid,
)
from ..core.types import BidDecision, BidKind, JobSpec
from ..core.distributions import PriceDistribution
from ..errors import InfeasibleBidError, PlanError
from ..market.price_sources import TracePriceSource
from ..market.requests import RequestState
from ..market.simulator import SpotMarket
from ..traces.history import SpotPriceHistory
from .kernels import dag_grid_kernel

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "TaskGraph",
    "DagPlan",
    "DagRunResult",
    "plan_dag",
    "run_dag_on_trace",
]


@dataclass(frozen=True)
class TaskGraph:
    """A DAG of named tasks with per-task job specs.

    ``edges`` are (upstream, downstream) pairs: the downstream task may
    only be bid on after the upstream task completes.
    """

    tasks: Mapping[str, JobSpec]
    edges: Sequence[Tuple[str, str]]

    def graph(self) -> "nx.DiGraph":
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self.tasks)
        for u, v in self.edges:
            if u not in self.tasks or v not in self.tasks:
                raise PlanError(f"edge ({u!r}, {v!r}) references unknown task")
            g.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(g):
            raise PlanError("task dependencies contain a cycle")
        return g


@dataclass(frozen=True)
class DagPlan:
    """Per-task bids plus model predictions for the whole DAG."""

    bids: Dict[str, BidDecision]
    #: Expected finish time of each task (critical-path accumulation).
    expected_finish: Dict[str, float]
    #: Expected total completion time (the latest expected finish).
    expected_completion_time: float
    #: Sum of per-task expected costs.
    expected_cost: float


def _decision_at_price(
    dist: PriceDistribution, spec: JobSpec, price: float
) -> BidDecision:
    """Assemble the :class:`BidDecision` ``optimal_persistent_bid``
    would return for an already-selected price — identical field math,
    including the unbounded-cost guard."""
    expected_cost = costs.persistent_cost(dist, price, spec)
    if math.isinf(expected_cost):
        raise InfeasibleBidError(
            f"persistent bid at {price:.6g} has unbounded expected cost "
            "(interruptibility condition eq. 14 violated)"
        )
    completion = costs.persistent_completion_time(dist, price, spec)
    running = costs.persistent_running_time(dist, price, spec)
    interruptions = (
        costs.expected_interruptions(dist, price, completion, spec.slot_length)
        if math.isfinite(completion)
        else math.inf
    )
    return BidDecision(
        price=price,
        kind=BidKind.PERSISTENT,
        expected_cost=expected_cost,
        expected_completion_time=completion,
        expected_running_time=running,
        expected_interruptions=interruptions,
        acceptance_probability=dist.cdf(price),
    )


def _batch_persistent_decisions(
    dist: PriceDistribution, specs: Sequence[JobSpec]
) -> Dict[JobSpec, BidDecision]:
    """Per-spec optimal persistent bids via one ``dag_grid`` kernel call.

    Unique scannable specs share a single eq. 15 cost matrix over the
    full candidate grid; per-spec feasibility masks and ``argmin``
    first-occurrence ties reproduce ``optimal_persistent_bid``'s scan
    exactly.  Degenerate specs (zero recovery, infeasible progress,
    empty feasible grid) take the scalar path directly so their error
    messages and special cases are untouched.
    """
    decisions: Dict[JobSpec, BidDecision] = {}
    scan_specs: List[JobSpec] = []
    for spec in specs:
        if spec in decisions or spec in scan_specs:
            continue
        if spec.recovery_time == 0.0 or spec.execution_time <= spec.recovery_time:
            decisions[spec] = optimal_persistent_bid(dist, spec)
        else:
            scan_specs.append(spec)
    if not scan_specs:
        return decisions
    full = candidate_prices(dist, dist.lower)
    cost = dag_grid_kernel(dist, full, scan_specs)["cost"]
    for i, spec in enumerate(scan_specs):
        low = _feasible_lower_bound(dist, spec)
        mask = full >= low - 1e-15
        if not mask.any():
            # candidate_prices would fall back to [upper]; let the
            # scalar optimizer handle that rare shape.
            decisions[spec] = optimal_persistent_bid(dist, spec)
            continue
        row = np.where(mask, cost[i], np.inf)
        if not np.isfinite(row).any():
            raise InfeasibleBidError(
                f"no feasible bid price: recovery time "
                f"t_r={spec.recovery_time:.6g}h violates eq. 14 at every "
                f"price in [{dist.lower:.6g}, {dist.upper:.6g}]"
            )
        price = float(full[int(np.argmin(row))])
        decisions[spec] = _decision_at_price(dist, spec, price)
    return decisions


def plan_dag(dist: PriceDistribution, task_graph: TaskGraph) -> DagPlan:
    """Compute staged bids and a critical-path completion estimate.

    Each task gets the Section 5.2 optimal persistent bid for its own
    spec; its expected finish time is its expected completion time added
    to the latest expected finish among its dependencies (tasks are bid
    only at that point, per Section 8).  All tasks' candidate scans run
    as one batched ``dag_grid`` kernel evaluation.
    """
    import networkx as nx

    g = task_graph.graph()
    decisions = _batch_persistent_decisions(
        dist, [task_graph.tasks[name] for name in task_graph.tasks]
    )
    bids: Dict[str, BidDecision] = {}
    finish: Dict[str, float] = {}
    for name in nx.topological_sort(g):
        spec = task_graph.tasks[name]
        decision = decisions[spec]
        bids[name] = decision
        start = max((finish[dep] for dep in g.predecessors(name)), default=0.0)
        finish[name] = start + decision.expected_completion_time
    if not finish:
        raise PlanError("task graph has no tasks")
    return DagPlan(
        bids=bids,
        expected_finish=finish,
        expected_completion_time=max(finish.values()),
        expected_cost=sum(b.expected_cost for b in bids.values()),
    )


@dataclass(frozen=True)
class DagRunResult:
    """Observed outcome of executing a DAG plan on the simulator."""

    completed: bool
    completion_time: float
    total_cost: float
    #: Observed finish time of each completed task.
    task_finish: Dict[str, float]
    interruptions: int


def run_dag_on_trace(
    plan: DagPlan,
    task_graph: TaskGraph,
    future: SpotPriceHistory,
    *,
    start_slot: int = 0,
) -> DagRunResult:
    """Execute the staged bidding protocol against a price trace.

    Tasks are submitted to the market the first slot after their last
    dependency completes — never before, so no money is spent keeping
    idle dependents pending.
    """
    g = task_graph.graph()
    market = SpotMarket(
        TracePriceSource(future, start_slot=start_slot),
        slot_length=future.slot_length,
    )
    pending = set(task_graph.tasks)
    request_ids: Dict[str, int] = {}
    finish: Dict[str, float] = {}

    def ready(name: str) -> bool:
        return all(dep in finish for dep in g.predecessors(name))

    budget = future.n_slots - start_slot
    for _step in range(budget):
        for name in sorted(pending):
            if ready(name):
                spec = task_graph.tasks[name]
                request_ids[name] = market.submit(
                    bid_price=plan.bids[name].price,
                    work=spec.execution_time,
                    kind=BidKind.PERSISTENT,
                    recovery_time=spec.recovery_time,
                    label=name,
                )
        pending -= set(request_ids)
        if not pending and not market.has_active_requests():
            break
        market.step()
        for name, rid in request_ids.items():
            if name not in finish and market.request_state(rid) is RequestState.COMPLETED:
                outcome = market.outcome(rid)
                finish[name] = (
                    outcome.completion_time
                    + outcome.submitted_slot * market.slot_length
                )
        if len(finish) == len(task_graph.tasks):
            break

    completed = len(finish) == len(task_graph.tasks)
    total_cost = sum(market.outcome(rid).cost for rid in request_ids.values())
    interruptions = sum(
        market.outcome(rid).interruptions for rid in request_ids.values()
    )
    return DagRunResult(
        completed=completed,
        completion_time=max(finish.values()) if finish else math.nan,
        total_cost=total_cost,
        task_finish=finish,
        interruptions=interruptions,
    )
