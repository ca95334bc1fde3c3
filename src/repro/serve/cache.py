"""Tiered decision cache: in-process LRU over an optional file layer.

Responses are keyed by the *request bucket* (the job parameters, strategy
and percentile that determine the answer) and stamped with the table
version that produced them.  A version mismatch on read counts as
*stale*: the entry is evicted and the caller recomputes against the
current generation, so a table rebuild implicitly invalidates every
cached decision without a scan.

The memory tier is a bounded ``OrderedDict`` LRU (:data:`DEFAULT_CAPACITY`
entries unless the caller asks for another bound).  The optional file tier
persists entries as JSON (via :mod:`repro.serve.protocol`, whose float
round-trip is exact) so a restarted daemon starts warm; it is
best-effort — unreadable or corrupt files count as misses, never errors.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..core.types import DecisionRequest, DecisionResponse
from ..errors import ServeError
from .protocol import decision_from_wire, decision_to_wire

__all__ = ["CacheStats", "DecisionCache"]

#: Memory-tier bound of a :class:`DecisionCache`, in decisions.
DEFAULT_CAPACITY: int = 4096


@dataclass(frozen=True)
class CacheStats:
    """Lifetime counters of one :class:`DecisionCache`."""

    memory_hits: int = 0
    file_hits: int = 0
    misses: int = 0
    stale: int = 0
    evictions: int = 0
    #: File-tier entries that existed but could not be read or parsed;
    #: each was evicted and also counted under ``misses``.
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.file_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.stale

    def as_dict(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "file_hits": self.file_hits,
            "misses": self.misses,
            "stale": self.stale,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


def _bucket_key(request: DecisionRequest) -> str:
    """Content key of the fields that determine a decision.

    ``repr`` of floats is exact, so two requests share a key iff the
    decision path sees identical inputs.  ``degrade`` is excluded: the
    serving layer always degrades rather than raising, and
    ``instance_type`` routing happens before the cache.
    """
    job = request.job
    raw = repr(
        (
            job.execution_time,
            job.recovery_time,
            job.slot_length,
            request.strategy.value,
            request.percentile,
            request.max_variance,
            request.cvar_alpha,
        )
    )
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()


class DecisionCache:
    """Version-checked request→response cache with two tiers.

    Parameters
    ----------
    capacity:
        Memory-tier bound, in decisions.
    directory:
        Optional file-tier root.  Created on first write; one JSON file
        per bucket key.
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[Union[str, Path]] = None,
    ):
        if capacity < 1:
            raise ServeError(f"cache capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._directory = Path(directory) if directory is not None else None
        self._memory: "OrderedDict[str, Tuple[str, DecisionResponse]]" = OrderedDict()
        self._memory_hits = 0
        self._file_hits = 0
        self._misses = 0
        self._stale = 0
        self._evictions = 0
        self._corrupt = 0

    # -- lookup ------------------------------------------------------------
    def get(
        self, request: DecisionRequest, table_version: str
    ) -> Optional[DecisionResponse]:
        """The cached response for ``request`` under ``table_version``.

        Returns ``None`` on miss.  Entries from superseded table versions
        are evicted and counted as stale.  Hits are re-stamped with the
        tier (``"memory"`` / ``"file"``) that answered.
        """
        key = _bucket_key(request)
        entry = self._memory.get(key)
        if entry is not None:
            version, response = entry
            if version == table_version:
                self._memory.move_to_end(key)
                self._memory_hits += 1
                return response.with_serving(
                    table_version=response.table_version,
                    cache_tier="memory",
                    degradation_reason=response.degradation_reason,
                )
            del self._memory[key]
            self._stale += 1
            self._drop_file(key)
            return None
        file_entry = self._read_file(key, request)
        if file_entry is not None:
            version, response = file_entry
            if version == table_version:
                self._file_hits += 1
                self._remember(key, version, response)
                return response.with_serving(
                    table_version=response.table_version,
                    cache_tier="file",
                    degradation_reason=response.degradation_reason,
                )
            self._stale += 1
            self._drop_file(key)
            return None
        self._misses += 1
        return None

    def put(self, request: DecisionRequest, response: DecisionResponse) -> None:
        """Remember ``response`` under its own table version."""
        if response.table_version is None:
            raise ServeError("only version-stamped responses are cacheable")
        key = _bucket_key(request)
        self._remember(key, response.table_version, response)
        self._write_file(key, request, response)

    def stats(self) -> CacheStats:
        return CacheStats(
            memory_hits=self._memory_hits,
            file_hits=self._file_hits,
            misses=self._misses,
            stale=self._stale,
            evictions=self._evictions,
            corrupt=self._corrupt,
        )

    def clear(self) -> None:
        """Drop the memory tier (counters and files survive)."""
        self._memory.clear()

    # -- memory tier -------------------------------------------------------
    def _remember(self, key: str, version: str, response: DecisionResponse) -> None:
        self._memory[key] = (version, response)
        self._memory.move_to_end(key)
        while len(self._memory) > self._capacity:
            self._memory.popitem(last=False)
            self._evictions += 1

    # -- file tier ---------------------------------------------------------
    def _file_path(self, key: str) -> Optional[Path]:
        if self._directory is None:
            return None
        return self._directory / f"{key}.json"

    def _write_file(
        self, key: str, request: DecisionRequest, response: DecisionResponse
    ) -> None:
        path = self._file_path(key)
        if path is None:
            return
        payload = {
            "table_version": response.table_version,
            "cache_tier": response.cache_tier,
            "degradation_reason": response.degradation_reason,
            "decision": decision_to_wire(response.decision),
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(path)
        except OSError:
            # Best effort: a read-only or full disk degrades to memory-only.
            return

    def _read_file(
        self, key: str, request: DecisionRequest
    ) -> Optional[Tuple[str, DecisionResponse]]:
        path = self._file_path(key)
        if path is None or not path.exists():
            return None
        # From here on the entry *exists*: any failure to read or parse
        # it is corruption, not a plain miss — evict the bad file (so it
        # is rewritten on the next put) and bump the corruption counter,
        # never propagate the exception.
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            version = payload["table_version"]
            decision = decision_from_wire(payload["decision"])
        except (OSError, ValueError, KeyError, TypeError, ServeError):
            self._corrupt += 1
            self._drop_file(key)
            return None
        if not isinstance(version, str):
            self._corrupt += 1
            self._drop_file(key)
            return None
        response = DecisionResponse(
            decision=decision,
            request=request,
            table_version=version,
            cache_tier=payload.get("cache_tier"),
            degradation_reason=payload.get("degradation_reason"),
        )
        return version, response

    def _drop_file(self, key: str) -> None:
        path = self._file_path(key)
        if path is None:
            return
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return
