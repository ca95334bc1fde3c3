"""Table 3: optimal bid prices for a one-hour job on five instance types.

Columns mirror the paper: the one-time bid (Prop. 4), persistent bids for
recovery times of 10 s and 30 s (Prop. 5), and the "best offline price in
retrospect" p̃ computed from the last 10 hours of history.  The paper's
qualitative findings, asserted by the benchmark:

* persistent bids sit below the one-time bid;
* a longer recovery time raises the persistent bid (t_r=30s > t_r=10s);
* the retrospective p̃ can fall below the one-time bid — bidding it would
  risk termination, showing 10 hours of history is insufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..constants import seconds
from ..core.client import BiddingClient
from ..core.heuristics import retrospective_best_price
from ..core.types import DecisionRequest, JobSpec, Strategy
from ..traces.catalog import TABLE3_TYPES, get_instance_type
from .common import (
    ExperimentConfig,
    FULL_CONFIG,
    format_table,
    future_trace,
    history_trace,
)

__all__ = ["Table3Row", "Table3Result", "run"]


@dataclass(frozen=True)
class Table3Row:
    instance_type: str
    ondemand: float
    onetime_bid: float
    persistent_bid_10s: float
    persistent_bid_30s: float
    retrospective: float

    @property
    def ordering_holds(self) -> bool:
        """p*(10s) < p*(30s) < one-time bid (Fig. 6(a)'s shape)."""
        return (
            self.persistent_bid_10s
            < self.persistent_bid_30s
            < self.onetime_bid
        )


@dataclass(frozen=True)
class Table3Result:
    rows: List[Table3Row]
    execution_time: float

    def table(self) -> str:
        headers = (
            "instance", "on-demand", "one-time p*",
            "persistent p* (10s)", "persistent p* (30s)", "retrospective p~",
        )
        body = [
            (
                r.instance_type,
                f"{r.ondemand:.4f}",
                f"{r.onetime_bid:.4f}",
                f"{r.persistent_bid_10s:.4f}",
                f"{r.persistent_bid_30s:.4f}",
                f"{r.retrospective:.4f}",
            )
            for r in self.rows
        ]
        return format_table(headers, body)

    @property
    def all_orderings_hold(self) -> bool:
        return all(r.ordering_holds for r in self.rows)


def run(config: ExperimentConfig = FULL_CONFIG) -> Table3Result:
    """Compute Table 3's bids from each type's two-month history."""
    execution_time = 1.0  # the paper's one-hour job
    rows = []
    for name in TABLE3_TYPES:
        itype = get_instance_type(name)
        history = history_trace(itype, config, 30)
        future = future_trace(itype, config, 30)
        client = BiddingClient(history, ondemand_price=itype.on_demand_price)
        onetime = client.respond(
            DecisionRequest(job=JobSpec(execution_time), strategy=Strategy.ONE_TIME)
        ).decision
        p10 = client.respond(
            DecisionRequest(
                job=JobSpec(execution_time, seconds(10)),
                strategy=Strategy.PERSISTENT,
            )
        ).decision
        p30 = client.respond(
            DecisionRequest(
                job=JobSpec(execution_time, seconds(30)),
                strategy=Strategy.PERSISTENT,
            )
        ).decision
        # p̃ looks back over the most recent 10h of (sticky) prices — the
        # renewal future's first day stands in for "just before bidding".
        recent = future.slice_slots(0, int(round(10.0 / future.slot_length)))
        retro = retrospective_best_price(
            recent.prices,
            lookback_slots=recent.n_slots,
            run_slots=int(round(execution_time / future.slot_length)),
        )
        rows.append(
            Table3Row(
                instance_type=name,
                ondemand=itype.on_demand_price,
                onetime_bid=onetime.price,
                persistent_bid_10s=p10.price,
                persistent_bid_30s=p30.price,
                retrospective=retro,
            )
        )
    return Table3Result(rows=rows, execution_time=execution_time)
