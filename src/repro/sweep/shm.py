"""Zero-copy price-stack sharing for process-pool fan-out.

Process fan-out used to pickle each chunk's slice of the ``(T, S)``
price matrix into every worker — ``O(T * S)`` bytes serialized per
sweep, again on every retry round.  This module instead places the
padded price matrix and the ``n_valid`` lengths in one
:mod:`multiprocessing.shared_memory` segment; workers receive only a
tiny picklable :class:`StackDescriptor` (segment name + shape) plus
``[lo, hi)`` row bounds and map the same physical pages read-only.

Layout of the segment: the ``(n_traces, n_slots)`` float64 price matrix
at offset 0, immediately followed by the ``(n_traces,)`` int64
``n_valid`` vector.

The parent owns the segment's lifetime (create → sweep → ``close`` +
``unlink``); workers attach lazily and cache the mapping per segment
name, so a pool reused across chunks and retry rounds maps each segment
once.  A pool's workers live for one
:func:`~repro.scheduler.run_shards` call, which ships one stack, and
detach it with :func:`close_stacks` on exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from multiprocessing import shared_memory

__all__ = ["SharedPriceStack", "StackDescriptor", "open_stack", "close_stacks"]

#: Attached segments of this process, by segment name.
_attached: "Dict[str, shared_memory.SharedMemory]" = {}


@dataclass(frozen=True)
class StackDescriptor:
    """Picklable handle to a shared price stack: everything a worker
    needs to re-materialize the arrays without copying them."""

    name: str
    n_traces: int
    n_slots: int

    @property
    def nbytes(self) -> int:
        return self.n_traces * self.n_slots * 8 + self.n_traces * 8


def _views(
    buf: memoryview, descriptor: StackDescriptor
) -> Tuple[np.ndarray, np.ndarray]:
    n_traces, n_slots = descriptor.n_traces, descriptor.n_slots
    prices = np.ndarray((n_traces, n_slots), dtype=np.float64, buffer=buf)
    n_valid = np.ndarray(
        (n_traces,), dtype=np.int64, buffer=buf, offset=n_traces * n_slots * 8
    )
    return prices, n_valid


class SharedPriceStack:
    """Parent-side owner of one shared-memory price stack.

    Usable as a context manager; exiting closes *and unlinks* the
    segment, so descriptors must not outlive the ``with`` block.
    """

    def __init__(self, matrix: np.ndarray, n_valid: np.ndarray) -> None:
        from multiprocessing import shared_memory

        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        n_valid = np.ascontiguousarray(n_valid, dtype=np.int64)
        if matrix.ndim != 2 or n_valid.shape != (matrix.shape[0],):
            raise ValueError(
                f"need a (T, S) matrix and (T,) n_valid, got "
                f"{matrix.shape} and {n_valid.shape}"
            )
        self.descriptor = StackDescriptor("", matrix.shape[0], matrix.shape[1])
        self._segment = shared_memory.SharedMemory(
            create=True, size=self.descriptor.nbytes
        )
        self.descriptor = StackDescriptor(
            self._segment.name, matrix.shape[0], matrix.shape[1]
        )
        prices_view, n_valid_view = _views(self._segment.buf, self.descriptor)
        prices_view[:] = matrix
        n_valid_view[:] = n_valid

    def close(self) -> None:
        """Drop the parent's mapping and destroy the segment."""
        try:
            self._segment.close()
        finally:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedPriceStack":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Before Python 3.13 (``track=False``), attaching registers the
    segment with the resource tracker as if this process owned it, so a
    worker exiting would unlink memory the parent and sibling workers
    still use.  Ownership lives with the parent; suppress the
    registration for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip(res_name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - defensive
            original(res_name, rtype)

    resource_tracker.register = _skip
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def open_stack(descriptor: StackDescriptor) -> Tuple[np.ndarray, np.ndarray]:
    """Attach to a shared stack and return read-only ``(prices, n_valid)``.

    The attachment is cached per process (and per segment name), so
    repeated chunks of the same sweep map the segment once.  Returned
    arrays are marked read-only: the parent owns the data and several
    workers share the pages.
    """
    segment = _attached.get(descriptor.name)
    if segment is None:
        try:
            segment = _attach_untracked(descriptor.name)
        except FileNotFoundError:
            # A respawned or speculative worker can receive a shard whose
            # segment the parent has already unlinked (driver crashed and
            # restarted, or the sweep finished while the dispatch was in
            # flight).  Name the segment so the scheduler's failure
            # record points at the stale descriptor, not a generic errno.
            raise FileNotFoundError(
                f"shared price stack {descriptor.name!r} is gone; the "
                f"owning sweep has exited or been restarted — this shard "
                f"must be re-dispatched under a fresh segment"
            ) from None
        _attached[descriptor.name] = segment
    prices, n_valid = _views(segment.buf, descriptor)
    prices.flags.writeable = False
    n_valid.flags.writeable = False
    return prices, n_valid


def close_stacks() -> None:
    """Detach every cached segment (test hygiene / worker shutdown)."""
    while _attached:
        _, segment = _attached.popitem()
        segment.close()
