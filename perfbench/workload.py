"""What every workload returns, and the op loop they share."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import harness


@dataclass
class Outcome:
    """One run of one workload.

    ``problems`` lists failed output checks; the run is correct when it
    is empty.  ``metrics`` holds values by metric name (units come from
    ``BENCHMARK.json``); ``diagnostics`` is printed but never gated.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def timed_ops(
    seconds: float,
    op: Callable[[int], Any],
    outcome: Outcome,
    drift: harness.Drift,
    check: Optional[Callable[[int, Any], None]] = None,
    min_ops: int = 1,
    setup: Optional[harness.Setup] = None,
) -> Tuple[List[float], List[float]]:
    """Run ``op(index)`` until ``seconds`` have passed and at least
    ``min_ops`` ops ran; return op times (s) and, per op, the mean of
    the calibration readings (ms) taken just before and just after it.

    An op that raises counts as failed and as an infinitely slow op.
    ``check(index, result)`` follows each op, outside its time.  The
    starts of ``setup`` fall between ops, spread over the run; the time
    they take does not count towards ``seconds``.
    """
    times: List[float] = []
    calibs: List[float] = []
    start = time.perf_counter()
    paused = 0.0
    index = 0
    before = drift.sample()
    while index < min_ops or time.perf_counter() - start - paused < seconds:
        if setup is not None and setup.due((time.perf_counter() - start - paused) / seconds):
            t0 = time.perf_counter()
            setup.take()
            paused += time.perf_counter() - t0
            before = drift.sample()
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op(index)
        except Exception as exc:  # the run reports it and carries on
            outcome.failed += 1
            outcome.problems.append(f"op {index} raised {type(exc).__name__}: {exc}")
            times.append(math.inf)
        else:
            times.append(time.perf_counter() - t0)
            if check is not None:
                check(index, result)
        index += 1
        after = drift.sample()
        calibs.append((before + after) / 2)
        before = after
    return times, calibs


def nominal_p50_ms(op_seconds: List[float], calibs: List[float]) -> float:
    """Median op time in ms at the host's nominal speed."""
    return harness.median(
        harness.at_nominal_speed(t * 1e3, c) for t, c in zip(op_seconds, calibs)
    )
