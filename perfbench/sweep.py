"""The ``sweep`` workload: the planner's backtest on the process pool.

One op is a ``PERSISTENT`` and a ``ONE_TIME`` :func:`repro.run_sweep`
over the same seeded stack and bid grid, with ``executor="process"`` and
``max_workers=2``.  Pairing the two strategies in one op keeps op times
unimodal.  Kernels, trace stacking, shared memory and the scheduler's
pool and IPC do the work.

Output checks: every op's reports are bitwise equal to a serial
``run_sweep`` on the same inputs, run once outside the timed ops, and a
serial ``run_sweep`` on the default seed's inputs has the digest pinned
below, whatever the run's seed: pool and serial paths can never agree
on a wrong answer unnoticed.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import harness, inputs
from perfbench.tracing import SpanTable, Tracer
from perfbench.workload import Outcome, nominal_p50_ms, timed_ops

#: sha256 prefix of the serial reports at the default seed.
DEFAULT_SEED_DIGEST = "0b57fba7b0a0db24"

#: A pool op takes about half a second here, so a run holds some forty
#: ops; the pool beats serial by about 1.3x and its kernels still take
#: most of the op, so kernel and fan-out gains can both show.
N_TRACES = 512
DAYS = 8.0
N_BIDS = 256
EXECUTION_HOURS = 4.0
RECOVERY_HOURS = 30.0 / 3600.0
WORKERS = 2

_FIELDS = (
    "completed",
    "cost",
    "completion_time",
    "running_time",
    "idle_time",
    "recovery_time_used",
    "interruptions",
)


def _arrays(reports: Sequence[Any]) -> List[np.ndarray]:
    return [getattr(r, name) for r in reports for name in _FIELDS]


def digest(reports: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for array in _arrays(reports):
        h.update(str(array.dtype).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def bitwise_equal(a: Sequence[Any], b: Sequence[Any]) -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(_arrays(a), _arrays(b))
    )


def stack_inputs(seed: int) -> Tuple[List[np.ndarray], List[int], np.ndarray]:
    """The seeded traces, start slots and bid grid of one run."""
    rng = np.random.default_rng(seed)
    traces, starts = inputs.sweep_stack(rng, N_TRACES, DAYS)
    return traces, starts, inputs.bid_grid(traces, N_BIDS)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    if trace:
        import_s = harness.Setup(lambda: harness.import_seconds("repro"), n=3).finish()
        setup = None
    else:
        setup = harness.Setup(lambda: harness.import_seconds("repro.sweep, repro.scheduler"))

    import repro
    from repro import JobSpec, Strategy

    traces, starts, bids = stack_inputs(seed)
    job = JobSpec(
        execution_time=EXECUTION_HOURS,
        recovery_time=RECOVERY_HOURS,
        slot_length=inputs.SLOT_HOURS,
    )
    cells = 2 * N_TRACES * N_BIDS
    dense_slots = 2 * N_BIDS * sum(t.size - s for t, s in zip(traces, starts))

    def backtest(stack: Any = (traces, starts, bids), **fanout: Any) -> List[Any]:
        # Through the module attribute, so the traced run sees the call.
        prices, first, grid = stack
        return [
            repro.run_sweep(prices, grid, job, strategy=s, start_slots=first, **fanout)
            for s in (Strategy.PERSISTENT, Strategy.ONE_TIME)
        ]

    reference = backtest()  # serial, untimed
    backtest(executor="process", max_workers=WORKERS)  # untimed warm-up
    # peak_rss_mb covers the timed pool ops only, not the untimed runs.
    harness.reset_peak_rss()
    drift = harness.Drift()

    tracer = Tracer(harness.OUT_DIR) if trace else None
    if tracer is not None:
        tracer.plan()
    # Traced runs cycle untraced pool op, traced pool op, traced serial op.
    cycle = 3 if tracer is not None else 1
    reports_of: Dict[int, List[Any]] = {}
    mismatches: List[int] = []

    def op(index: int) -> List[Any]:
        kind = index % cycle
        if kind == 0:
            return backtest(executor="process", max_workers=WORKERS)
        tracer.op = index
        tracer.install()
        try:
            if kind == 1:
                return backtest(executor="process", max_workers=WORKERS)
            return backtest()
        finally:
            tracer.uninstall()
            tracer.collect_side_files()

    def check(index: int, reports: List[Any]) -> None:
        if not bitwise_equal(reports, reference):
            mismatches.append(index)
        if index % cycle == 1:
            reports_of[index] = [
                {
                    "slots": r.counters.slots_simulated,
                    "scheduler": r.scheduler,
                    "result_bytes": sum(getattr(r, f).nbytes for f in _FIELDS),
                }
                for r in reports
            ]

    times, calibs = timed_ops(seconds, op, outcome, drift, check, min_ops=cycle, setup=setup)
    rss = harness.peak_rss_mb()

    outcome.check(not mismatches, f"sweep: ops {mismatches} differ from the serial run")
    ref_digest = digest(reference)
    pinned = (
        ref_digest
        if seed == harness.DEFAULT_SEED
        else digest(backtest(stack_inputs(harness.DEFAULT_SEED)))
    )
    outcome.check(
        pinned == DEFAULT_SEED_DIGEST,
        f"sweep: default-seed digest {pinned} != {DEFAULT_SEED_DIGEST}",
    )
    pool = times[0::cycle]
    outcome.diagnostics.update(
        drift=drift.summary(),
        ops=len(times),
        cells_per_op=cells,
        cells_per_s=cells / harness.median(pool),
        op_s=[round(t, 4) for t in times],
        digest=ref_digest,
    )
    if tracer is None:
        outcome.metrics["op_p50_norm_ms"] = nominal_p50_ms(times, calibs)
        outcome.diagnostics["op_p50_ms"] = harness.percentile(times, 50.0) * 1e3
        outcome.diagnostics["op_p90_ms"] = harness.percentile(times, 90.0) * 1e3
        outcome.metrics["setup_s"] = setup.finish()
        outcome.metrics["peak_rss_mb"] = rss
        outcome.diagnostics["setup_runs_s"] = setup.seconds
        return outcome

    traced_pool = list(reports_of)
    traced_serial = [i for i in range(len(times)) if i % cycle == 2]
    table = SpanTable(tracer.spans)
    me = os.getpid()

    def med(values: Any) -> float:
        values = list(values)
        return harness.median(values) if values else 0.0

    def worker_kernels(o: int) -> List[Any]:
        return [s for s in table.of("sweep.kernel", o) if s[6] != me]

    def first_kernel_ms(o: int) -> List[float]:
        out = []
        kernels = worker_kernels(o)
        for rs in table.of("scheduler.run_shards", o):
            inside = [k[2] for k in kernels if rs[2] <= k[2] <= rs[3]]
            if inside:
                out.append((min(inside) - rs[2]) / 1e6)
        return out

    busy = {o: sum(k[3] - k[2] for k in worker_kernels(o)) / 1e9 for o in traced_pool}
    shards = {o: table.total_seconds("scheduler.run_shards", o) for o in traced_pool}
    serial_busy = med(table.total_seconds("sweep.kernel", o) for o in traced_serial)
    serial_s = med(times[o] for o in traced_serial)
    pool_s = med(times[o] for o in traced_pool)
    scheds = {o: [r["scheduler"] for r in reports_of[o]] for o in traced_pool}

    m = outcome.metrics
    m["sweep.run_sweep_s"] = med(table.total_seconds("sweep.run_sweep", o) for o in traced_pool)
    m["sweep.calls"] = med(table.calls("sweep.run_sweep", o) for o in traced_pool)
    m["sweep.cells"] = med(tracer.counts.get(("sweep.cells", o), 0) for o in traced_pool)
    m["sweep.self_s"] = med(table.self_seconds("sweep.run_sweep", o) for o in traced_pool)
    m["sweep.shm_s"] = med(
        sum(s[3] - s[2] for s in table.of("sweep.shm", o) if s[6] == me) / 1e9
        for o in traced_pool
    )
    m["scheduler.run_shards_s"] = med(shards.values())
    m["scheduler.first_kernel_ms"] = med(
        ms for o in traced_pool for ms in first_kernel_ms(o)
    )
    m["sweep.kernel_busy_s"] = med(busy.values())
    m["sweep.kernel_calls"] = med(len(worker_kernels(o)) for o in traced_pool)
    m["scheduler.worker_util"] = med(
        busy[o] / (WORKERS * shards[o]) for o in traced_pool if shards[o]
    )
    m["sweep.kernel_inflation"] = med(busy.values()) / serial_busy if serial_busy else 0.0
    m["scheduler.speedup_vs_serial"] = serial_s / pool_s if pool_s else 0.0
    m["scheduler.dispatch_ratio"] = med(
        sum(s.n_shards for s in scheds[o]) / max(1, sum(s.dispatched for s in scheds[o]))
        for o in traced_pool
    )
    m["scheduler.speculated"] = med(sum(s.speculated for s in scheds[o]) for o in traced_pool)
    m["scheduler.respawned"] = med(
        sum(s.workers_respawned for s in scheds[o]) for o in traced_pool
    )
    m["sweep.slots_simulated_share"] = med(
        sum(r["slots"] for r in reports_of[o]) / dense_slots for o in traced_pool
    )
    m["sweep.result_mb"] = med(
        sum(r["result_bytes"] for r in reports_of[o]) / 2**20 for o in traced_pool
    )
    m["setup.import_s"] = import_s
    m["trace.overhead_share"] = pool_s / med(pool) - 1.0
    outcome.diagnostics.update(
        untraced_op_s=med(pool),
        traced_op_s=pool_s,
        traced_serial_op_s=serial_s,
    )
    return outcome
