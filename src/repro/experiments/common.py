"""Shared infrastructure for the Section 7 experiment reproductions.

Every experiment module exposes ``run(config) -> <Result>`` where the
result object renders the paper's table/figure rows via ``table()``.
Benchmarks call ``run`` with :data:`FAST_CONFIG` (seconds per experiment)
and assert the paper's qualitative shapes; EXPERIMENTS.md records a
:data:`FULL_CONFIG` run.

The backtest protocol (fixed across experiments):

* *history* — a 60-day i.i.d. trace from the instance type's equilibrium
  model (what Amazon's API exposed); the client fits its ECDF to this.
* *future* — a sticky renewal trace (the realistic temporal texture;
  see :func:`repro.traces.generator.generate_renewal_history`) on which
  bids are executed, starting at a random slot ("random times of the
  day", §7.1).

Both come from one seeded substream, history first:
:func:`history_trace` draws the history and :func:`future_trace` the
future that follows it, skipping the history's draws in O(1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..constants import DEFAULT_SLOT_HOURS, SLOTS_PER_DAY
from ..traces.catalog import InstanceType, get_instance_type
from ..traces.generator import (
    generate_equilibrium_history,
    generate_renewal_history,
    skip_equilibrium_history,
)
from ..traces.history import SpotPriceHistory

__all__ = [
    "ExperimentConfig",
    "FAST_CONFIG",
    "FULL_CONFIG",
    "history_trace",
    "future_trace",
    "calm_start_slot",
    "format_table",
    "TABLE4_SETTINGS",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    #: Length of the fitted price history (Amazon exposed two months).
    history_days: float = 60.0
    #: Length of the held-out execution trace.
    future_days: float = 8.0
    #: Runs per data point ("we repeat each experiment ten times", §7).
    repetitions: int = 10
    #: Root RNG seed; every experiment derives substreams from it.
    seed: int = 20140814  # the first day of the paper's trace window
    #: Mean floor/tail episode lengths of the renewal future traces.
    floor_episode_hours: float = 36.0
    tail_episode_hours: float = 2.5
    slot_length: float = DEFAULT_SLOT_HOURS

    def rng(self, *stream: int) -> np.random.Generator:
        """A reproducible substream for one experiment component."""
        return np.random.default_rng((self.seed, *stream))


#: Small config for CI/benchmarks: fewer repetitions, shorter traces.
FAST_CONFIG = ExperimentConfig(history_days=30.0, future_days=6.0, repetitions=6)

#: The configuration used for the numbers recorded in EXPERIMENTS.md.
FULL_CONFIG = ExperimentConfig(repetitions=20)


def _trace_stream(
    instance_type: Union[str, InstanceType],
    config: ExperimentConfig,
    stream: Tuple[int, ...],
) -> Tuple[InstanceType, np.random.Generator]:
    itype = (
        instance_type
        if isinstance(instance_type, InstanceType)
        else get_instance_type(instance_type)
    )
    # A per-type substream keyed by a *stable* hash (str hash() is
    # randomized per process and would break reproducibility).
    return itype, config.rng(zlib.crc32(itype.name.encode()), *stream)


def history_trace(
    instance_type: Union[str, InstanceType],
    config: ExperimentConfig,
    *stream: int,
) -> SpotPriceHistory:
    """The equilibrium history of one instance type on its substream:
    the first draws of ``stream``, which the client fits."""
    itype, rng = _trace_stream(instance_type, config, stream)
    return generate_equilibrium_history(
        itype, days=config.history_days, rng=rng, slot_length=config.slot_length
    )


def future_trace(
    instance_type: Union[str, InstanceType],
    config: ExperimentConfig,
    *stream: int,
) -> SpotPriceHistory:
    """The renewal future of one instance type on its substream: the
    draws of ``stream`` that follow :func:`history_trace`'s history,
    which is skipped rather than drawn."""
    itype, rng = _trace_stream(instance_type, config, stream)
    skip_equilibrium_history(
        rng, days=config.history_days, slot_length=config.slot_length
    )
    return generate_renewal_history(
        itype,
        days=config.future_days,
        rng=rng,
        floor_episode_hours=config.floor_episode_hours,
        tail_episode_hours=config.tail_episode_hours,
        slot_length=config.slot_length,
    )


def calm_start_slot(rng: np.random.Generator, future: SpotPriceHistory) -> int:
    """A random first-day start slot where the market is calm.

    Figure 1's client watches the current spot price, so a user submits
    when the price sits at its floor rather than mid-spike — the paper's
    "random times of the day" runs saw zero interruptions precisely
    because 2014 prices were at the floor almost whenever anyone looked.
    Falls back to a uniformly random slot if the first day has no
    floor-priced slot (rare for the catalog's floor masses).
    """
    horizon = min(SLOTS_PER_DAY, future.n_slots)
    window = future.prices[:horizon]
    floor = float(future.prices.min())
    candidates = np.flatnonzero(window <= floor + 1e-12)
    if candidates.size == 0:
        return int(rng.integers(0, horizon))
    return int(rng.choice(candidates))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table (the benches print these)."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([str(c) for c in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


#: The five Table 4 client settings: (master type, slave type).  The
#: paper pairs general-purpose masters with compute/memory-optimized
#: slaves ("we therefore bid on instances with better CPU performance
#: for the slave nodes").
TABLE4_SETTINGS: Tuple[Tuple[str, str], ...] = (
    ("m3.xlarge", "c3.2xlarge"),
    ("m3.xlarge", "c3.4xlarge"),
    ("m3.xlarge", "c3.8xlarge"),
    ("m3.2xlarge", "r3.2xlarge"),
    ("m3.2xlarge", "r3.4xlarge"),
)
