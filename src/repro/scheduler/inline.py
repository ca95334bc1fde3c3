"""The scheduler's in-process lane: shards run serially or on threads.

:func:`run_inline` is what :func:`~repro.scheduler.run_shards` calls for
``executor="thread"``.  It runs each shard in the calling process —
serially when one worker (or one shard) is asked for, else on a
``ThreadPoolExecutor``, which pays off for kernels that spend their time
in NumPy with the interpreter lock released.  A failing shard is retried
at once until it has failed ``max_shard_failures`` times, then recorded
as an :class:`~repro.scheduler.journal.ItemFailure`, as on the pool.

The lane lives apart from :mod:`repro.scheduler.pool` because that
module forks: threads alive at fork time would be copied into the
children in an undefined state (rule RB701).  With no worker it can
kill, this lane offers no shard timeouts, crash isolation, speculation
or worker chaos; :func:`~repro.scheduler.run_shards` rejects those
options here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .journal import ItemFailure, SweepJournal
from .types import Shard

__all__ = ["run_inline"]

#: One shard's outcome: (result or last error, succeeded, attempts).
_Outcome = Tuple[Any, bool, int]


def _attempt(
    fn: Callable[[Any], Any], payload: Any, max_shard_failures: int
) -> _Outcome:
    """Run one shard until it succeeds or fails ``max_shard_failures``
    times in a row."""
    error: Optional[Exception] = None
    for attempt in range(1, max_shard_failures + 1):
        try:
            return fn(payload), True, attempt
        except Exception as exc:  # a shard error is data, as on the pool
            error = exc
    return error, False, max_shard_failures


def run_inline(
    fn: Callable[[Any], Any],
    shards: Sequence[Shard],
    *,
    max_workers: int,
    max_shard_failures: int,
    journal: Optional[SweepJournal],
    serialize: Callable[[Any], Any],
) -> Tuple[Dict[int, Any], List[ItemFailure], Dict[str, int]]:
    """Run ``shards`` in this process; returns ``(results by shard index,
    failures, counters)``, the counters named as the pool's.

    Each finished shard is journaled as soon as the calling thread
    collects it, in shard order.
    """
    results: Dict[int, Any] = {}
    failures: List[ItemFailure] = []
    stats = {"dispatched": 0, "quarantined": 0}

    def collect(shard: Shard, outcome: _Outcome) -> None:
        value, ok, attempts = outcome
        stats["dispatched"] += attempts
        if ok:
            results[shard.index] = value
            if journal is not None:
                journal.record(shard.key, serialize(value))
            return
        stats["quarantined"] += 1
        failures.append(
            ItemFailure(
                index=shard.index,
                label=shard.label,
                error_type=type(value).__name__,
                message=str(value),
                attempts=attempts,
            )
        )

    n_threads = min(max_workers, len(shards))
    if n_threads <= 1:
        for shard in shards:
            collect(shard, _attempt(fn, shard.payload, max_shard_failures))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            futures = [
                pool.submit(_attempt, fn, shard.payload, max_shard_failures)
                for shard in shards
            ]
            for shard, future in zip(shards, futures):
                collect(shard, future.result())
    return results, failures, stats
