"""The work-stealing coordinator: dynamic shard dispatch over a pool.

:func:`run_shards` is the package's one fan-out executor:
:func:`repro.sweep.run_sweep` runs every sweep through it.  With
``executor="thread"`` it hands the shards to the in-process lane
(:mod:`repro.scheduler.inline`); otherwise the coordinator below runs
them on a worker pool.  Design points, each forced by a failure mode
the static pool could not survive:

* **Per-worker duplex pipes, parent-driven dispatch.**  A shared
  ``multiprocessing.Queue`` holds a cross-process lock; a worker
  SIGKILLed while holding it deadlocks everyone else.  Here the only
  shared state is the coordinator's memory — a dead worker costs one
  pipe EOF, never a lock.
* **Dynamic assignment.**  Workers pull shards one at a time, so a slow
  worker holds back exactly one shard, not a statically assigned slice.
* **Speculative re-dispatch.**  A running shard older than
  ``max(straggler_min_seconds, straggler_factor x median completed
  duration)`` gets one speculative copy on another worker; the first
  completion wins and the loser is dropped, so stragglers bound tail
  latency without ever changing results.
* **Crash respawn + re-queue.**  Pipe EOF (or a dead process) retires
  the worker, re-queues its in-flight shard, and respawns a fresh
  incarnation in the same slot.
* **Poison quarantine.**  A shard that fails on ``max_shard_failures``
  distinct worker incarnations is quarantined as an
  :class:`~repro.scheduler.journal.ItemFailure` row instead of
  wedging the pool.  Every failure retires its incarnation, so the
  failure count is a distinct-incarnation count by construction.
* **Crash-consistent journals.**  Completed shards append to an fsync'd
  JSON-lines :class:`~repro.scheduler.journal.SweepJournal`; a re-run
  after the coordinator is SIGKILLed loads it and recomputes only
  unfinished shards.

Results are assembled by shard index, never by completion order, so for
a pure shard function the output is bitwise identical to a serial run
regardless of the failure schedule — the invariant the chaos tests pin.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import SpecError, SweepExecutionError
from .journal import ItemFailure, SweepJournal
from .types import SchedulerResult, SchedulerStats, Shard

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from multiprocessing.connection import Connection

    from ..resilience.faults import WorkerFaults

__all__ = ["run_shards"]

#: Failures after which :func:`run_shards` quarantines a shard as poison
#: (on the pool, on distinct worker incarnations; on the thread lane,
#: attempts in a row).
MAX_SHARD_FAILURES: int = 3

#: Coordinator wake-up interval, seconds: the granularity of straggler
#: detection and liveness checks while no messages arrive.
_TICK_SECONDS = 0.05

#: Worker incarnation key: (pool slot, respawn epoch).
_Key = Tuple[int, int]


def _identity(value: Any) -> Any:
    return value


class _ShardState:
    """Mutable per-shard bookkeeping inside one run."""

    __slots__ = (
        "shard",
        "done",
        "quarantined",
        "running",
        "failed",
        "attempts",
        "speculated",
        "done_at",
        "last_error",
    )

    def __init__(self, shard: Shard):
        self.shard = shard
        self.done = False
        self.quarantined = False
        #: In-flight copies: incarnation key -> dispatch monotonic time.
        self.running: Dict[_Key, float] = {}
        #: Incarnations that failed this shard (crash, error or timeout).
        self.failed: Set[_Key] = set()
        self.attempts = 0
        self.speculated = False
        self.done_at: Optional[float] = None
        self.last_error: Tuple[str, str] = ("", "")

    @property
    def resolved(self) -> bool:
        return self.done or self.quarantined


class _Worker:
    """One live worker incarnation owned by the coordinator."""

    __slots__ = ("slot", "epoch", "process", "conn", "current")

    def __init__(self, slot: int, epoch: int, process: Any, conn: Connection):
        self.slot = slot
        self.epoch = epoch
        self.process = process
        self.conn = conn
        #: Shard index currently assigned, if any.
        self.current: Optional[int] = None

    @property
    def key(self) -> _Key:
        return (self.slot, self.epoch)

    @property
    def name(self) -> str:
        return f"w{self.slot}e{self.epoch}"


class _Coordinator:
    def __init__(
        self,
        fn: Callable[[Any], Any],
        shards: Sequence[Shard],
        *,
        max_workers: int,
        max_shard_failures: int,
        straggler_factor: float,
        straggler_min_seconds: float,
        speculate: bool,
        shard_timeout: Optional[float],
        journal: Optional[SweepJournal],
        serialize: Callable[[Any], Any],
        worker_faults: "Optional[WorkerFaults]",
    ):
        from multiprocessing import get_context

        self.fn = fn
        self.states = {s.index: _ShardState(s) for s in shards}
        self.max_workers = max_workers
        self.max_shard_failures = max_shard_failures
        self.straggler_factor = straggler_factor
        self.straggler_min_seconds = straggler_min_seconds
        self.speculate = speculate
        self.shard_timeout = shard_timeout
        self.journal = journal
        self.serialize = serialize
        self.worker_faults = worker_faults

        self.ctx = (
            get_context("fork")
            if "fork" in _start_methods()
            else get_context()
        )
        self.pending: Deque[int] = deque(s.index for s in shards)
        self.spec_queue: Deque[int] = deque()
        self.unresolved = len(self.states)
        self.results: Dict[int, Any] = {}
        self.failures: List[ItemFailure] = []
        self.durations: List[float] = []
        self.workers: Dict[int, _Worker] = {}
        self.epochs: Dict[int, int] = {}
        self.stats: Dict[str, int] = {
            "dispatched": 0,
            "speculated": 0,
            "duplicates_dropped": 0,
            "worker_crashes": 0,
            "workers_respawned": 0,
            "workers_reclaimed": 0,
            "quarantined": 0,
        }

    # -- worker lifecycle --------------------------------------------------
    def _spawn(self, slot: int) -> _Worker:
        from .worker import worker_main

        epoch = self.epochs.get(slot, -1) + 1
        self.epochs[slot] = epoch
        plan = (
            self.worker_faults.plan(slot, epoch)
            if self.worker_faults is not None
            else None
        )
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        # A forked child inherits every coordinator-side end open now,
        # its own and its live siblings', and must close them: while any
        # copy survives, a worker whose coordinator died never reads EOF
        # and lives on as an orphan.  A spawned child inherits none, and
        # passing the ends to it would duplicate them into it.
        inherited: Tuple[Connection, ...] = (
            (parent_conn, *(w.conn for w in self.workers.values()))
            if self.ctx.get_start_method() == "fork"
            else ()
        )
        process = self.ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                slot,
                epoch,
                self.fn,
                plan,
                inherited,
            ),
            daemon=True,
            name=f"repro-sched-w{slot}e{epoch}",
        )
        process.start()
        # The parent must drop its copy of the child end or a dead child
        # never produces EOF on the parent's end.
        child_conn.close()
        worker = _Worker(slot, epoch, process, parent_conn)
        self.workers[slot] = worker
        return worker

    def _retire(self, worker: _Worker, *, respawn: bool) -> None:
        """Tear one incarnation down (and optionally refill its slot)."""
        self.workers.pop(worker.slot, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stuck in kernel
            worker.process.kill()
            worker.process.join(timeout=1.0)
        if respawn and self.unresolved > 0:
            self._spawn(worker.slot)
            self.stats["workers_respawned"] += 1

    # -- failure accounting ------------------------------------------------
    def _fail_shard(
        self, worker: _Worker, index: int, error_type: str, message: str
    ) -> None:
        """One copy of ``index`` failed on ``worker``'s incarnation."""
        state = self.states[index]
        state.running.pop(worker.key, None)
        if state.resolved:
            return
        state.failed.add(worker.key)
        state.last_error = (error_type, message)
        if len(state.failed) >= self.max_shard_failures:
            state.quarantined = True
            self.unresolved -= 1
            self.stats["quarantined"] += 1
            self.failures.append(
                ItemFailure(
                    index=index,
                    label=state.shard.label,
                    error_type=error_type,
                    message=message,
                    attempts=state.attempts,
                )
            )
        elif not state.running and index not in self.pending:
            # No other copy in flight: back to the front of the queue so
            # recovery work preempts fresh work.
            self.pending.appendleft(index)

    def _on_crash(self, worker: _Worker) -> None:
        self.stats["worker_crashes"] += 1
        if worker.current is not None:
            self._fail_shard(
                worker,
                worker.current,
                "WorkerCrash",
                f"worker {worker.name} died while running shard "
                f"{worker.current}",
            )
        self._retire(worker, respawn=True)

    # -- message handling --------------------------------------------------
    def _on_message(self, worker: _Worker, message: tuple) -> None:
        """Handle one worker message; ``("ready", ...)`` needs no action."""
        tag = message[0]
        if tag == "ok":
            _, index, result = message
            self._on_ok(worker, index, result)
        elif tag == "err":
            _, index, error_type, detail = message
            worker.current = None
            self._fail_shard(worker, index, error_type, detail)
            # An erroring incarnation is retired: the next attempt runs
            # on a fresh worker, making shard-failure counts distinct-
            # incarnation counts by construction.
            self._retire(worker, respawn=True)

    def _on_ok(self, worker: _Worker, index: int, result: Any) -> None:
        state = self.states[index]
        dispatched_at = state.running.pop(worker.key, None)
        worker.current = None
        if state.resolved:
            # A speculative (or post-quarantine) duplicate: first
            # completion already won; drop this copy unconditionally.
            self.stats["duplicates_dropped"] += 1
            return
        state.done = True
        state.done_at = time.monotonic()
        self.unresolved -= 1
        if dispatched_at is not None:
            self.durations.append(state.done_at - dispatched_at)
        self.results[index] = result
        if self.journal is not None:
            self.journal.record(state.shard.key, self.serialize(result))

    # -- dispatch ----------------------------------------------------------
    def _next_shard_for(self, worker: _Worker) -> Optional[Tuple[int, bool]]:
        """Pop the next shard this incarnation may run, or ``None``.

        Originals before speculative copies; a shard is never handed to
        an incarnation that already failed it, nor a speculative copy to
        the incarnation already running the original.
        """
        for queue, speculative in ((self.pending, False), (self.spec_queue, True)):
            for _ in range(len(queue)):
                index = queue.popleft()
                state = self.states[index]
                if state.resolved:
                    continue  # stale queue entry
                if worker.key in state.failed or worker.key in state.running:
                    queue.append(index)
                    continue
                return index, speculative
        return None

    def _dispatch_idle(self) -> int:
        dispatched = 0
        for worker in list(self.workers.values()):
            if worker.current is not None:
                continue
            pick = self._next_shard_for(worker)
            if pick is None:
                continue
            index, speculative = pick
            state = self.states[index]
            try:
                worker.conn.send(("shard", index, state.shard.payload))
            except (BrokenPipeError, OSError):
                # Died between ticks; requeue and let crash handling run.
                queue = self.spec_queue if speculative else self.pending
                queue.appendleft(index)
                self._on_crash(worker)
                continue
            worker.current = index
            state.running[worker.key] = time.monotonic()
            state.attempts += 1
            self.stats["dispatched"] += 1
            if speculative:
                self.stats["speculated"] += 1
            dispatched += 1
        return dispatched

    # -- periodic checks ---------------------------------------------------
    def _straggler_deadline(self) -> float:
        if not self.durations:
            return self.straggler_min_seconds
        ordered = sorted(self.durations)
        median = ordered[len(ordered) // 2]
        return max(self.straggler_min_seconds, self.straggler_factor * median)

    def _check_stragglers(self, now: float) -> None:
        if not self.speculate:
            return
        deadline = self._straggler_deadline()
        for state in self.states.values():
            if state.resolved or state.speculated or not state.running:
                continue
            if len(state.running) > 1:
                continue  # a speculative copy is already in flight
            (started,) = state.running.values()
            if now - started > deadline:
                state.speculated = True
                self.spec_queue.append(state.shard.index)

    def _check_timeouts(self, now: float) -> None:
        if self.shard_timeout is None:
            return
        for worker in list(self.workers.values()):
            index = worker.current
            if index is None:
                continue
            state = self.states[index]
            started = state.running.get(worker.key)
            if started is None or now - started <= self.shard_timeout:
                continue
            worker.current = None
            self._fail_shard(
                worker,
                index,
                "TimeoutError",
                f"no result within {self.shard_timeout:g}s",
            )
            self._retire(worker, respawn=True)

    def _check_liveness(self) -> None:
        for worker in list(self.workers.values()):
            if not worker.process.is_alive():
                self._on_crash(worker)

    def _reclaim_losers(self, now: float) -> None:
        """Free workers still grinding on shards another copy finished.

        Only worth a respawn when queued work is actually waiting for a
        slot; otherwise the final teardown collects them.
        """
        if not (self.pending or self.spec_queue):
            return
        deadline = self._straggler_deadline()
        for worker in list(self.workers.values()):
            index = worker.current
            if index is None:
                continue
            state = self.states[index]
            if not state.resolved or state.done_at is None:
                continue
            if now - state.done_at > deadline:
                self.stats["workers_reclaimed"] += 1
                self._retire(worker, respawn=True)

    # -- main loop ---------------------------------------------------------
    def run(self) -> None:
        from multiprocessing.connection import wait

        n_workers = min(self.max_workers, max(1, self.unresolved))
        for slot in range(n_workers):
            self._spawn(slot)
        try:
            while self.unresolved > 0:
                self._dispatch_idle()
                by_conn = {w.conn: w for w in self.workers.values()}
                try:
                    ready = wait(list(by_conn), timeout=_TICK_SECONDS)
                except OSError:  # pragma: no cover - raced a closing pipe
                    ready = []
                for conn in ready:
                    worker = by_conn.get(conn)  # type: ignore[arg-type]
                    if worker is None or self.workers.get(worker.slot) is not worker:
                        continue  # retired while iterating
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        self._on_crash(worker)
                        continue
                    self._on_message(worker, message)
                now = time.monotonic()
                self._check_liveness()
                self._check_timeouts(now)
                self._check_stragglers(now)
                self._reclaim_losers(now)
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        for worker in self.workers.values():
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self.workers.values()):
            self._retire(worker, respawn=False)


def _start_methods() -> Sequence[str]:
    import multiprocessing

    return multiprocessing.get_all_start_methods()


def run_shards(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    executor: str = "process",
    max_workers: Optional[int] = None,
    keys: Optional[Sequence[str]] = None,
    labels: Optional[Sequence[str]] = None,
    journal: "Union[None, str, os.PathLike, SweepJournal]" = None,
    signature: Optional[Dict[str, Any]] = None,
    serialize: Callable[[Any], Any] = _identity,
    deserialize: Callable[[Any], Any] = _identity,
    strict: bool = True,
    max_shard_failures: int = MAX_SHARD_FAILURES,
    straggler_factor: float = 3.0,
    straggler_min_seconds: float = 1.0,
    speculate: bool = True,
    shard_timeout: Optional[float] = None,
    worker_faults: "Optional[WorkerFaults]" = None,
) -> SchedulerResult:
    """Run ``fn`` over ``payloads``, one shard per payload.

    ``executor="process"`` (the default) pulls shards dynamically onto a
    pool of ``max_workers`` persistent worker processes.
    ``executor="thread"`` runs them in this process
    (:mod:`repro.scheduler.inline`): serially when ``max_workers`` is 1
    or there is one shard, else on ``min(max_workers, n_shards)``
    threads.  The returned
    :class:`~repro.scheduler.types.SchedulerResult` lists results in
    shard order on either lane; shards that failed ``max_shard_failures``
    times (on the pool: on that many distinct worker incarnations) are
    quarantined as :class:`~repro.scheduler.journal.ItemFailure` rows
    (``None`` in ``results``) — or, with ``strict=True`` (the default),
    raise :class:`~repro.errors.SweepExecutionError`.  The thread lane
    retries a failing shard at once.

    ``journal`` (a path or an existing
    :class:`~repro.scheduler.journal.SweepJournal`) enables
    crash-consistent resume: completed shards are appended — fsync'd
    when given as a path — under their ``keys``, and a re-run returns
    journaled results without recomputing them.
    ``serialize``/``deserialize`` convert results to/from JSON-safe
    payloads.

    On the pool, a running shard older than ``max(straggler_min_seconds,
    straggler_factor x median completed-shard duration)`` gets one
    speculative copy; ``speculate=False`` disables that re-dispatch
    (crash recovery stays on).  ``shard_timeout`` kills and respawns a
    worker whose shard copy exceeds it, counting a failure against the
    shard.  ``worker_faults`` injects seeded process-level chaos (see
    :class:`~repro.resilience.faults.WorkerFaults`).  Both need a worker
    that can be killed, so the thread lane rejects them with
    :class:`~repro.errors.SpecError`, a ``ValueError``.
    """
    if executor not in ("process", "thread"):
        raise SpecError(
            f"unknown executor {executor!r}; use 'thread' or 'process'"
        )
    payloads = list(payloads)
    n = len(payloads)
    if keys is None:
        keys = [str(i) for i in range(n)]
    if labels is None:
        labels = [f"shard {i}" for i in range(n)]
    if len(keys) != n or len(labels) != n:
        raise SweepExecutionError(
            f"got {len(keys)} keys / {len(labels)} labels for {n} shards"
        )
    if max_workers is None:
        max_workers = 1
    elif max_workers < 1:
        raise SweepExecutionError(
            f"max_workers must be >= 1, got {max_workers!r}"
        )
    if max_shard_failures < 1:
        raise SweepExecutionError(
            f"max_shard_failures must be >= 1, got {max_shard_failures!r}"
        )
    if shard_timeout is not None and shard_timeout <= 0:
        raise SweepExecutionError(
            f"shard_timeout must be positive, got {shard_timeout!r}"
        )
    if executor == "thread" and (
        shard_timeout is not None or worker_faults is not None
    ):
        raise SpecError(
            "shard_timeout and worker_faults need a worker that can be "
            "killed: use executor='process'"
        )

    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal, signature=signature, fsync=True)

    results: List[Optional[Any]] = [None] * n
    reused: List[int] = []
    shards: List[Shard] = []
    if journal is not None:
        finished = journal.load()
    else:
        finished = {}
    for i, payload in enumerate(payloads):
        if keys[i] in finished:
            results[i] = deserialize(finished[keys[i]])
            reused.append(i)
        else:
            shards.append(Shard(index=i, payload=payload, key=keys[i], label=labels[i]))

    done: Dict[int, Any] = {}
    failed: List[ItemFailure] = []
    stats_raw: Dict[str, int] = {}
    if shards and executor == "thread":
        from .inline import run_inline

        done, failed, stats_raw = run_inline(
            fn,
            shards,
            max_workers=max_workers,
            max_shard_failures=max_shard_failures,
            journal=journal,
            serialize=serialize,
        )
    elif shards:
        coordinator = _Coordinator(
            fn,
            shards,
            max_workers=max_workers,
            max_shard_failures=max_shard_failures,
            straggler_factor=straggler_factor,
            straggler_min_seconds=straggler_min_seconds,
            speculate=speculate,
            shard_timeout=shard_timeout,
            journal=journal,
            serialize=serialize,
            worker_faults=worker_faults,
        )
        coordinator.run()
        done, failed, stats_raw = (
            coordinator.results,
            coordinator.failures,
            coordinator.stats,
        )
    for index, value in done.items():
        results[index] = value
    failures = tuple(sorted(failed, key=lambda f: f.index))

    stats = SchedulerStats(
        n_shards=n,
        reused=len(reused),
        dispatched=stats_raw.get("dispatched", 0),
        speculated=stats_raw.get("speculated", 0),
        duplicates_dropped=stats_raw.get("duplicates_dropped", 0),
        worker_crashes=stats_raw.get("worker_crashes", 0),
        workers_respawned=stats_raw.get("workers_respawned", 0),
        workers_reclaimed=stats_raw.get("workers_reclaimed", 0),
        quarantined=stats_raw.get("quarantined", 0),
    )
    if strict and failures:
        first = failures[0]
        raise SweepExecutionError(
            f"{len(failures)} shard(s) quarantined; first: {first}"
        )
    return SchedulerResult(
        results=results,
        failures=failures,
        reused=tuple(reused),
        stats=stats,
    )
