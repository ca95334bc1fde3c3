"""Failure records and resume journals for sharded runs.

:func:`repro.scheduler.run_shards` — the executor under
:func:`repro.sweep.run_sweep` — records a shard that keeps
failing as a structured :class:`ItemFailure` instead of killing the
whole run, and appends finished shards to a :class:`SweepJournal`
(JSON lines) so an interrupted run can resume without recomputing
them.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from ..errors import SweepExecutionError

__all__ = [
    "ItemFailure",
    "JournalWarning",
    "SweepJournal",
]


@dataclass(frozen=True)
class ItemFailure:
    """One work item that failed permanently (retries exhausted)."""

    index: int
    label: str
    error_type: str
    message: str
    attempts: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"item {self.index} ({self.label}): {self.error_type}: "
            f"{self.message} after {self.attempts} attempt(s)"
        )


class JournalWarning(UserWarning):
    """A journal file held unusable lines that resume skipped over."""


class SweepJournal:
    """Append-only JSON-lines journal of finished work items.

    The first line is a header carrying a caller-supplied *signature*
    (e.g. the sweep's shape and job parameters).  Resuming against a
    journal whose signature differs raises
    :class:`~repro.errors.SweepExecutionError` rather than silently
    mixing results from different sweeps.

    Crash consistency: a driver killed mid-append leaves a torn final
    line.  :meth:`load` skips it with a :class:`JournalWarning` and
    truncates the file back to the last complete record, so the next
    append starts on a clean line instead of concatenating onto the torn
    tail.  With ``fsync=True`` every record is flushed and fsync'd
    before :meth:`record` returns — the scheduler's shard journals run
    in this mode.
    """

    _MAGIC = "repro.resilience.journal/1"

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        signature: Optional[Dict[str, Any]] = None,
        fsync: bool = False,
    ):
        self.path = os.fspath(path)
        self.signature = signature
        self.fsync = bool(fsync)
        self._header_written = False

    def load(self) -> Dict[str, Any]:
        """Finished items keyed by item key; ``{}`` if no journal yet.

        Unparseable lines are skipped with a :class:`JournalWarning`; a
        torn *final* line (the expected residue of a crash mid-write) is
        additionally repaired by truncating the file to the last
        complete record.
        """
        if not os.path.exists(self.path):
            return {}
        entries: Dict[str, Any] = {}
        with open(self.path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        good_bytes = 0  # end offset of the last fully-parsed line
        torn_tail = False
        for lineno, chunk in enumerate(lines, start=1):
            is_last = lineno == len(lines)
            line_bytes = len(chunk) + (0 if is_last else 1)
            text = chunk.decode("utf-8", errors="replace").strip()
            if not text:
                good_bytes += line_bytes
                continue
            try:
                record = json.loads(text)
            except json.JSONDecodeError:
                if is_last:
                    # A torn final line from a crash mid-write is
                    # expected; everything before it is still usable.
                    torn_tail = True
                    warnings.warn(
                        f"journal {self.path}: skipping torn final line "
                        f"{lineno} (crash mid-write); resuming from the "
                        f"last complete record",
                        JournalWarning,
                        stacklevel=2,
                    )
                    break
                warnings.warn(
                    f"journal {self.path}: skipping unparseable line "
                    f"{lineno}",
                    JournalWarning,
                    stacklevel=2,
                )
                good_bytes += line_bytes
                continue
            if lineno == 1:
                if not isinstance(record, dict) or record.get("magic") != self._MAGIC:
                    raise SweepExecutionError(
                        f"{self.path} is not a sweep journal"
                    )
                stored = record.get("signature")
                if self.signature is not None and stored != self.signature:
                    raise SweepExecutionError(
                        f"journal {self.path} belongs to a different "
                        f"sweep (signature {stored!r} != "
                        f"{self.signature!r})"
                    )
                self._header_written = True
                good_bytes += line_bytes
                continue
            entries[record["key"]] = record["result"]
            good_bytes += line_bytes
        if torn_tail:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_bytes)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
        return entries

    def record(self, key: str, result: Any) -> None:
        """Append one finished item (writes the header first if needed).

        With ``fsync=True`` the line is durable on disk — not just in
        the page cache — before this method returns.
        """
        with open(self.path, "a") as fh:
            if not self._header_written and fh.tell() == 0:
                fh.write(
                    json.dumps(
                        {"magic": self._MAGIC, "signature": self.signature}
                    )
                    + "\n"
                )
                self._header_written = True
            fh.write(json.dumps({"key": key, "result": result}) + "\n")
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
