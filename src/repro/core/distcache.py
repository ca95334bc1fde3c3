"""Memoized :class:`EmpiricalPriceDistribution` construction.

Building an empirical distribution sorts the whole price history; sweep
workloads (and the experiment loops rewired onto them) repeatedly build
distributions from the *same* history — one per strategy, one per
repetition, one per client.  This module deduplicates that work with a
content-addressed LRU cache keyed on the price bytes, so identical
histories share one distribution object.

The cache lives in ``repro.core`` (it depends only on the distribution
types) so both the batch layers (:mod:`repro.sweep`) and the serving
layer (:mod:`repro.serve`) share one seam — and so
:class:`~repro.core.client.BiddingClient` can import it at module scope
instead of deferring the import to every construction.

The cache is deliberately process-local and bounded; hit/miss counters
feed the :class:`~repro.sweep.report.SweepCounters` diagnostics.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from ..constants import DIST_CACHE_SIZE
from .distributions import EmpiricalPriceDistribution

__all__ = [
    "cached_distribution",
    "distribution_cache_stats",
    "clear_distribution_cache",
]


def _max_entries() -> int:
    """Effective cache bound: the ``REPRO_DIST_CACHE_SIZE`` registry
    entry, re-read per call so the env var also works when set after
    import (e.g. in spawned pool workers)."""
    return DIST_CACHE_SIZE.get()

_lock = threading.Lock()
_cache: "OrderedDict[Tuple[str, Optional[float]], EmpiricalPriceDistribution]" = (
    OrderedDict()
)
_hits = 0
_misses = 0


def _key(prices: np.ndarray, upper: Optional[float]) -> Tuple[str, Optional[float]]:
    digest = hashlib.sha1(np.ascontiguousarray(prices, dtype=float)).hexdigest()
    return digest, None if upper is None else float(upper)


def cached_distribution(
    source: Union[np.ndarray, "object"],
    *,
    upper: Optional[float] = None,
) -> EmpiricalPriceDistribution:
    """Return (possibly shared) ``EmpiricalPriceDistribution(prices, upper)``.

    ``source`` is a price array or anything with a ``.prices`` attribute
    (e.g. :class:`~repro.traces.history.SpotPriceHistory`).  Distributions
    are immutable in practice, so sharing one instance between callers
    that supplied byte-identical histories is safe.
    """
    global _hits, _misses
    prices = np.asarray(getattr(source, "prices", source), dtype=float)
    key = _key(prices, upper)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _cache.move_to_end(key)
            _hits += 1
            return cached
    dist = EmpiricalPriceDistribution(prices, upper=upper)
    with _lock:
        _misses += 1
        _cache[key] = dist
        while len(_cache) > _max_entries():
            _cache.popitem(last=False)
    return dist


def distribution_cache_stats() -> Tuple[int, int]:
    """Lifetime ``(hits, misses)`` of the process-local cache."""
    with _lock:
        return _hits, _misses


def clear_distribution_cache() -> None:
    """Drop all cached distributions and reset the counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
