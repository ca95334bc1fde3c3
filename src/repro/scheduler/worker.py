"""The scheduler's worker-process entry point.

One worker is one long-lived process running :func:`worker_main`: it
announces itself, then loops pulling shard assignments off its pipe,
running the shard function, and sending the result back.  All messages
are small tagged tuples.  The coordinator learns of a dead worker from
pipe EOF or the process's exit, and of a silent one from its shard
timeout.

Chaos hooks live here too: a :class:`~repro.resilience.faults.WorkerFaultPlan`
(computed by the parent, per worker epoch, from a seeded injector) can
delay the worker's start, stall it before a given shard, or kill it
outright with ``os._exit`` — the same hard death a SIGKILL or an OOM
kill produces, which is exactly what the coordinator's crash handling
must survive.
"""

from __future__ import annotations

import os
import time
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..resilience.faults import WorkerFaultPlan

__all__ = ["worker_main"]


def worker_main(
    conn: Connection,
    worker_id: int,
    epoch: int,
    fn: Callable[[Any], Any],
    plan: "Optional[WorkerFaultPlan]" = None,
    inherited: Sequence[Connection] = (),
) -> None:
    """Run shards from ``conn`` until told to stop (or chaos kills us).

    The worker never raises out of this function: shard exceptions are
    reported as ``("err", ...)`` messages and the loop continues, so one
    poison shard cannot take the worker (and its warm caches) down.
    ``inherited`` holds the coordinator-side pipe ends a forked worker
    inherited; closing them first lets ``conn`` read EOF once the
    coordinator is gone, so the worker exits with it.
    """
    for end in inherited:
        end.close()

    def send(message: tuple) -> bool:
        """Send ``message``; ``False`` once the coordinator is gone."""
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent died; nothing to do
            return False
        return True

    if plan is not None and plan.slow_start_seconds > 0:
        time.sleep(plan.slow_start_seconds)

    connected = send(("ready", worker_id, epoch))

    shard_seq = 0  # worker-local count of assignments, drives chaos plans
    try:
        while connected:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            tag = message[0]
            if tag == "stop":
                break
            if tag != "shard":  # pragma: no cover - protocol guard
                continue
            _, shard_index, payload = message
            if plan is not None:
                if plan.kill_on_shard is not None and shard_seq == plan.kill_on_shard:
                    # A hard death: no cleanup, no flush — indistinguishable
                    # from SIGKILL as far as the coordinator can tell.
                    os._exit(1)
                if (
                    plan.stall_on_shard is not None
                    and shard_seq == plan.stall_on_shard
                    and plan.stall_seconds > 0
                ):
                    time.sleep(plan.stall_seconds)
            shard_seq += 1
            try:
                result = fn(payload)
            except BaseException as exc:
                connected = send(
                    ("err", shard_index, type(exc).__name__, str(exc))
                )
            else:
                connected = send(("ok", shard_index, result))
    finally:
        try:
            from ..sweep.shm import close_stacks

            close_stacks()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
