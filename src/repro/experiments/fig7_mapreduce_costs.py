"""Figure 7: MapReduce on spot vs on-demand instances.

For each Table 4 client setting, the word-count job runs once on spot
instances (the eq. 20 plan) and once on on-demand instances (the
analytic baseline with guaranteed availability).  The paper's headline:
up to 92.6% cost reduction with a 14.9% increase in completion time —
spot is much cheaper (panel b) and somewhat slower (panel a).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List

import numpy as np

from ..analysis.stats import percent_difference, savings_fraction
from ..mapreduce.grid import run_plan_grid
from ..mapreduce.runner import ondemand_baseline
from ..traces.catalog import get_instance_type
from .common import (
    ExperimentConfig,
    FULL_CONFIG,
    TABLE4_SETTINGS,
    format_table,
    calm_start_slot,
    future_trace,
)
from .table4_mapreduce_plans import build_plan

__all__ = ["Fig7Bar", "Fig7Result", "run"]


@dataclass(frozen=True)
class Fig7Bar:
    setting: str
    master_type: str
    slave_type: str
    spot_completion_mean: float
    spot_completion_median: float
    spot_cost_mean: float
    ondemand_completion: float
    ondemand_cost: float
    completed: int
    repetitions: int

    @property
    def savings(self) -> float:
        """Cost reduction vs on demand (the paper: up to 92.6%)."""
        return savings_fraction(self.spot_cost_mean, self.ondemand_cost)

    @property
    def slowdown_pct(self) -> float:
        """Completion-time increase vs on demand (the paper: +14.9%)."""
        return percent_difference(self.spot_completion_mean, self.ondemand_completion)

    @property
    def median_slowdown_pct(self) -> float:
        return percent_difference(
            self.spot_completion_median, self.ondemand_completion
        )


@dataclass(frozen=True)
class Fig7Result:
    bars: List[Fig7Bar]

    def table(self) -> str:
        headers = (
            "setting", "master/slaves", "T spot (h)", "T od (h)", "slowdown",
            "med.slowdown", "$ spot", "$ od", "savings", "completed",
        )
        rows = [
            (
                b.setting,
                f"{b.master_type}/{b.slave_type}",
                f"{b.spot_completion_mean:.2f}",
                f"{b.ondemand_completion:.2f}",
                f"{b.slowdown_pct:+.1f}%",
                f"{b.median_slowdown_pct:+.1f}%",
                f"{b.spot_cost_mean:.3f}",
                f"{b.ondemand_cost:.3f}",
                f"{b.savings:.1%}",
                f"{b.completed}/{b.repetitions}",
            )
            for b in self.bars
        ]
        return format_table(headers, rows)

    @property
    def best_savings(self) -> float:
        return max(b.savings for b in self.bars)

    @property
    def worst_savings(self) -> float:
        return min(b.savings for b in self.bars)


def run(config: ExperimentConfig = FULL_CONFIG) -> Fig7Result:
    """Simulate each client setting on spot and compare with on demand."""
    bars = []
    for idx, (master_name, slave_name) in enumerate(TABLE4_SETTINGS, start=1):
        plan = build_plan(master_name, slave_name, config)
        master_t = get_instance_type(master_name)
        slave_t = get_instance_type(slave_name)
        baseline = ondemand_baseline(
            plan.job, master_t.on_demand_price, slave_t.on_demand_price
        )
        rng = config.rng(7, zlib.crc32(f"{master_name}/{slave_name}".encode()))
        master_futs, slave_futs, starts = [], [], []
        for rep in range(config.repetitions):
            master_fut = future_trace(master_t, config, 71, rep)
            slave_fut = future_trace(slave_t, config, 72, rep)
            master_futs.append(master_fut)
            slave_futs.append(slave_fut)
            starts.append(calm_start_slot(rng, slave_fut))
        # All repetitions go through the batched plan-grid kernel in one
        # call; results are bitwise identical to the per-rep scalar runs.
        grid = run_plan_grid(plan, master_futs, slave_futs, start_slots=starts)
        results = grid.results(0)
        times = [r.completion_time for r in results if r.completed]
        costs = [r.total_cost for r in results if r.completed]
        completed = sum(1 for r in results if r.completed)
        bars.append(
            Fig7Bar(
                setting=f"C{idx}",
                master_type=master_name,
                slave_type=slave_name,
                spot_completion_mean=float(np.mean(times)),
                spot_completion_median=float(np.median(times)),
                spot_cost_mean=float(np.mean(costs)),
                ondemand_completion=baseline.completion_time,
                ondemand_cost=baseline.total_cost,
                completed=completed,
                repetitions=config.repetitions,
            )
        )
    return Fig7Result(bars=bars)
