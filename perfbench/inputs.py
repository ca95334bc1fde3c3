"""Seeded inputs of the ``sweep`` and ``serve`` workloads.

Generated here with numpy alone, not with ``repro.traces`` or
``repro.bench``, so a change to those modules cannot change a workload.
Prices are spot-shaped 5-minute series: long floor episodes with a
small tick texture alternate with short heavy-tailed spikes, capped
below the on-demand price.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import numpy as np

SLOT_HOURS = 5.0 / 60.0
SLOTS_PER_DAY = 288
FLOOR = 0.0321
TICK = 0.0004
ONDEMAND = 0.35
#: Mean floor and spike episode lengths, in slots (36 h and 2.5 h).
FLOOR_EPISODE = 432
SPIKE_EPISODE = 30


def spot_prices(rng: np.random.Generator, n_slots: int) -> np.ndarray:
    """One spot-shaped price series of ``n_slots`` slots."""
    prices = np.empty(n_slots)
    pos = 0
    spike = bool(rng.random() < SPIKE_EPISODE / (SPIKE_EPISODE + FLOOR_EPISODE))
    while pos < n_slots:
        mean = SPIKE_EPISODE if spike else FLOOR_EPISODE
        length = min(int(rng.geometric(1.0 / mean)), n_slots - pos)
        if spike:
            level = FLOOR * (1.3 + rng.pareto(2.0, size=length))
            prices[pos : pos + length] = np.minimum(level, 0.9 * ONDEMAND)
        else:
            prices[pos : pos + length] = FLOOR + TICK * rng.integers(0, 4, size=length)
        pos += length
        spike = not spike
    return prices


def sweep_stack(
    rng: np.random.Generator, n_traces: int, days: float
) -> Tuple[List[np.ndarray], List[int]]:
    """Ragged traces of ``days`` plus up to one extra day, each with a
    random start slot within its first day."""
    base = int(days * SLOTS_PER_DAY)
    traces = [
        spot_prices(rng, base + int(rng.integers(0, SLOTS_PER_DAY)))
        for _ in range(n_traces)
    ]
    starts = [int(rng.integers(0, SLOTS_PER_DAY)) for _ in range(n_traces)]
    return traces, starts


def bid_grid(traces: List[np.ndarray], n_bids: int) -> np.ndarray:
    """Bids spanning the floor to the highest spike of the stack."""
    top = max(float(t.max()) for t in traces)
    return np.linspace(FLOOR, top, n_bids)


def write_trace_csv(prices: np.ndarray, path: Path) -> None:
    """Write prices in the trace CSV format ``repro-bid serve`` reads."""
    lines = [
        "# instance_type=",
        f"# slot_length_hours={SLOT_HOURS!r}",
        "# start_hour=0.0",
        "slot,time_hours,price",
    ]
    lines.extend(
        f"{i},{i * SLOT_HOURS:.6f},{p:.10g}" for i, p in enumerate(prices)
    )
    path.write_text("\n".join(lines) + "\n")
