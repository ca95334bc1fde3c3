"""Figure 6: persistent vs one-time requests, percentage differences.

Three panels, each the percentage difference of a persistent strategy
(t_r = 10 s, t_r = 30 s, and the 90th-percentile heuristic) relative to
the one-time baseline on the same instance type:

* (a) price charged per running hour — negative (persistent bids lower);
* (b) job completion time — positive (persistent jobs idle when out-bid);
* (c) total job cost — negative for the optimal persistent bids, with
  the 90th-percentile heuristic saving less than the optimum.

Each repetition executes all four strategies on the *same* future trace
and start slot, so the comparisons are paired.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.stats import percent_difference
from ..constants import seconds
from ..core.client import BiddingClient
from ..core.types import DecisionRequest, JobSpec, Strategy
from ..sweep import run_sweep
from ..traces.catalog import TABLE3_TYPES, get_instance_type
from .common import (
    ExperimentConfig,
    FULL_CONFIG,
    format_table,
    calm_start_slot,
    future_trace,
    history_trace,
)

__all__ = ["STRATEGIES", "Fig6Cell", "Fig6Result", "run"]

#: The compared strategies, keyed by the labels used in Figure 6.
STRATEGIES = ("persistent-10s", "persistent-30s", "percentile-90")


@dataclass(frozen=True)
class Fig6Cell:
    """One (instance type, strategy) bar across the three panels."""

    instance_type: str
    strategy: str
    price_diff_pct: float  #: panel (a)
    completion_diff_pct: float  #: panel (b)
    cost_diff_pct: float  #: panel (c)
    completed: int
    repetitions: int


@dataclass(frozen=True)
class Fig6Result:
    cells: List[Fig6Cell]

    def table(self) -> str:
        headers = (
            "instance", "strategy", "(a) price/hr %", "(b) completion %",
            "(c) cost %", "completed",
        )
        rows = [
            (
                c.instance_type,
                c.strategy,
                f"{c.price_diff_pct:+.1f}",
                f"{c.completion_diff_pct:+.1f}",
                f"{c.cost_diff_pct:+.1f}",
                f"{c.completed}/{c.repetitions}",
            )
            for c in self.cells
        ]
        return format_table(headers, rows)

    def cell(self, instance_type: str, strategy: str) -> Fig6Cell:
        for c in self.cells:
            if c.instance_type == instance_type and c.strategy == strategy:
                return c
        raise KeyError((instance_type, strategy))

    def mean_cost_diff(self, strategy: str) -> float:
        vals = [c.cost_diff_pct for c in self.cells if c.strategy == strategy]
        return float(np.mean(vals))

    def mean_completion_diff(self, strategy: str) -> float:
        vals = [c.completion_diff_pct for c in self.cells if c.strategy == strategy]
        return float(np.mean(vals))

    def mean_price_diff(self, strategy: str) -> float:
        vals = [c.price_diff_pct for c in self.cells if c.strategy == strategy]
        return float(np.mean(vals))


def _strategy_decision(client: BiddingClient, strategy: str, base_ts: float):
    if strategy == "persistent-10s":
        job = JobSpec(base_ts, seconds(10))
        request = DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
    elif strategy == "persistent-30s":
        job = JobSpec(base_ts, seconds(30))
        request = DecisionRequest(job=job, strategy=Strategy.PERSISTENT)
    elif strategy == "percentile-90":
        job = JobSpec(base_ts, seconds(30))
        request = DecisionRequest(
            job=job, strategy=Strategy.PERCENTILE, percentile=90.0
        )
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return job, client.respond(request).decision


def run(config: ExperimentConfig = FULL_CONFIG) -> Fig6Result:
    """Paired backtests of persistent strategies against one-time bids.

    One-hour runs on sticky traces often see no price excursion at all
    (every strategy then behaves identically), so the strategy means only
    separate with enough samples; since each run is cheap, four paired
    runs are taken per configured repetition.
    """
    base_ts = 1.0
    repetitions = config.repetitions * 4
    cells: List[Fig6Cell] = []
    for name in TABLE3_TYPES:
        itype = get_instance_type(name)
        history = history_trace(itype, config, 60)
        client = BiddingClient(history, ondemand_price=itype.on_demand_price)
        onetime_job = JobSpec(base_ts, slot_length=config.slot_length)
        onetime = client.respond(
            DecisionRequest(job=onetime_job, strategy=Strategy.ONE_TIME)
        ).decision
        # Bid decisions depend only on the history, not the repetition,
        # so they are computed once per instance type.
        plans = {s: _strategy_decision(client, s, base_ts) for s in STRATEGIES}
        rng = config.rng(6, zlib.crc32(name.encode()))

        # All repetitions share one trace stack with paired start slots;
        # each strategy is then a single-bid sweep over that stack.
        futures = []
        starts = []
        for rep in range(repetitions):
            future = future_trace(itype, config, 61, rep)
            futures.append(future)
            starts.append(calm_start_slot(rng, future))

        base_report = run_sweep(
            futures, onetime.price, onetime_job,
            strategy=Strategy.ONE_TIME, start_slots=starts,
        )
        # Figure 6 compares *completed* runs (none of the paper's
        # baseline runs were interrupted); the rare failed baseline
        # runs are excluded from every panel and the completion
        # counters expose them.
        base_ok = base_report.completed[:, 0]
        base_cost_arr = base_report.cost[base_ok, 0]
        base_run_arr = base_report.running_time[base_ok, 0]
        base_price = float(np.mean(base_cost_arr / base_run_arr))
        base_time = float(np.mean(base_report.completion_time[base_ok, 0]))
        base_cost = float(np.mean(base_cost_arr))

        for strat in STRATEGIES:
            job, decision = plans[strat]
            report = run_sweep(
                futures, decision.price, job,
                strategy=Strategy.PERSISTENT, start_slots=starts,
            )
            ok = report.completed[:, 0]
            cost_arr = report.cost[ok, 0]
            run_arr = report.running_time[ok, 0]
            cells.append(
                Fig6Cell(
                    instance_type=name,
                    strategy=strat,
                    price_diff_pct=percent_difference(
                        float(np.mean(cost_arr / run_arr)), base_price
                    ),
                    completion_diff_pct=percent_difference(
                        float(np.mean(report.completion_time[ok, 0])), base_time
                    ),
                    cost_diff_pct=percent_difference(
                        float(np.mean(cost_arr)), base_cost
                    ),
                    completed=int(np.count_nonzero(ok)),
                    repetitions=repetitions,
                )
            )
    return Fig6Result(cells=cells)
