"""Table 4: MapReduce bidding plans for five client settings.

Each setting pairs a master instance type with a (compute- or memory-
optimized) slave type, computes the joint bids of eq. 20 for the word-
count workload (t_r = 30 s, t_o = 60 s), and breaks the simulated cost
into master and slave components.  The paper reports the master costing
10–25% of the slave cost, and minimum viable slave counts as low as 3–4.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..constants import seconds
from ..core.mapreduce import plan_master_slave
from ..core.types import MapReducePlan
from ..mapreduce.grid import run_plan_grid
from ..mapreduce.job import MapReduceWorkload
from ..traces.catalog import get_instance_type
from .common import (
    ExperimentConfig,
    FULL_CONFIG,
    TABLE4_SETTINGS,
    format_table,
    calm_start_slot,
    future_trace,
    history_trace,
)

__all__ = ["WORDCOUNT", "Table4Row", "Table4Result", "run", "build_plan"]

#: The word-count workload used by every Table 4 / Figure 7 setting:
#: 16 instance-hours of map+reduce work with the paper's t_r/t_o.
WORDCOUNT = MapReduceWorkload(
    map_hours=15.0,
    reduce_hours=1.0,
    split_overhead=seconds(60),
    recovery_time=seconds(30),
)


@dataclass(frozen=True)
class Table4Row:
    setting: str
    master_type: str
    slave_type: str
    master_bid: float
    slave_bid: float
    num_slaves: int
    min_slaves: int
    master_cost: float
    slave_cost: float
    #: Runs per termination reason, e.g. ``{"completed": 10}``.
    termination_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def master_cost_fraction(self) -> float:
        """Master over slave cost — the paper reports 10–25%."""
        return self.master_cost / self.slave_cost if self.slave_cost > 0 else float("inf")


def _completed_cell(counts: Dict[str, int]) -> str:
    """``"10/10"`` plus the dominant failure reason, if any."""
    if not counts:
        return "-"
    total = sum(counts.values())
    done = counts.get("completed", 0)
    cell = f"{done}/{total}"
    failures = {k: v for k, v in counts.items() if k != "completed" and v}
    if failures:
        worst = max(failures, key=failures.get)
        cell += f" ({worst})"
    return cell


@dataclass(frozen=True)
class Table4Result:
    rows: List[Table4Row]

    def table(self) -> str:
        headers = (
            "setting", "master", "slaves", "p_m*", "p_v*", "M", "M_min",
            "master $", "slave $", "master/slave", "completed",
        )
        body = [
            (
                r.setting,
                r.master_type,
                r.slave_type,
                f"{r.master_bid:.4f}",
                f"{r.slave_bid:.4f}",
                r.num_slaves,
                r.min_slaves,
                f"{r.master_cost:.4f}",
                f"{r.slave_cost:.4f}",
                f"{r.master_cost_fraction:.1%}",
                _completed_cell(r.termination_counts),
            )
            for r in self.rows
        ]
        return format_table(headers, body)

    @property
    def fractions(self) -> List[float]:
        return [r.master_cost_fraction for r in self.rows]


def build_plan(
    master_name: str, slave_name: str, config: ExperimentConfig
) -> MapReducePlan:
    """The standard Table 4 plan for one client setting.

    Following §6.2, the slave count is anchored at the minimum M̲ that
    makes eq. 20 feasible ("this minimum number of nodes ... can be as
    low as 3 or 4") plus a small margin of two nodes, matching the small
    clusters of the paper's Table 4 runs.
    """
    master_t = get_instance_type(master_name)
    slave_t = get_instance_type(slave_name)
    master_hist = history_trace(master_t, config, 40)
    slave_hist = history_trace(slave_t, config, 41)
    md, sd = master_hist.to_distribution(), slave_hist.to_distribution()
    job = WORDCOUNT.to_job_spec(num_slaves=6, slot_length=config.slot_length)
    seed_plan = plan_master_slave(
        md, sd, job,
        master_ondemand=master_t.on_demand_price,
        slave_ondemand=slave_t.on_demand_price,
    )
    chosen = max(seed_plan.min_slaves + 2, 4)
    if chosen == job.num_slaves:
        return seed_plan
    return plan_master_slave(
        md, sd, job.with_slaves(chosen),
        master_ondemand=master_t.on_demand_price,
        slave_ondemand=slave_t.on_demand_price,
    )


def run(config: ExperimentConfig = FULL_CONFIG) -> Table4Result:
    """Plan and simulate each client setting, splitting the costs."""
    rows = []
    for idx, (master_name, slave_name) in enumerate(TABLE4_SETTINGS, start=1):
        plan = build_plan(master_name, slave_name, config)
        master_t = get_instance_type(master_name)
        slave_t = get_instance_type(slave_name)
        rng = config.rng(42, zlib.crc32(f"{master_name}/{slave_name}".encode()))
        master_futs, slave_futs, starts = [], [], []
        for rep in range(config.repetitions):
            master_fut = future_trace(master_t, config, 43, rep)
            slave_fut = future_trace(slave_t, config, 44, rep)
            master_futs.append(master_fut)
            slave_futs.append(slave_fut)
            starts.append(calm_start_slot(rng, slave_fut))
        # One batched-kernel call replaces the per-repetition scalar
        # loop; the outputs are bitwise identical.
        grid = run_plan_grid(plan, master_futs, slave_futs, start_slots=starts)
        master_costs, slave_costs = [], []
        for result in grid.results(0):
            if result.completed:
                master_costs.append(result.master_cost)
                slave_costs.append(result.slave_cost)
        rows.append(
            Table4Row(
                setting=f"C{idx}",
                master_type=master_name,
                slave_type=slave_name,
                master_bid=plan.master_bid.price,
                slave_bid=plan.slave_bid.price,
                num_slaves=plan.job.num_slaves,
                min_slaves=plan.min_slaves,
                master_cost=float(np.mean(master_costs)),
                slave_cost=float(np.mean(slave_costs)),
                termination_counts=grid.termination_counts(0),
            )
        )
    return Table4Result(rows=rows)
