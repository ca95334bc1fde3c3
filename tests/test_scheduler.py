"""The shard scheduler: dispatch, crash recovery, straggler speculation,
poison quarantine, crash-consistent journals, and its in-process lane.

Chaos here is *process-level* — seeded :class:`WorkerFaults` kill,
stall, and slow-start real worker processes — and the invariant under
test everywhere is the scheduler's contract: the failure schedule may
change timing and accounting, never results.  The contract classes
(``TestBasics``, ``TestPoisonQuarantine``, ``TestShardJournal``) run on
the process pool and again, through their ``...Serial`` and
``...Threads`` subclasses, on the in-process lane.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.types import JobSpec, Strategy
from repro.errors import SweepExecutionError
from repro.scheduler.journal import SweepJournal
from repro.resilience.faults import BENIGN_WORKER_PLAN, WorkerFaultPlan, WorkerFaults
from repro.scheduler import run_shards
from repro.sweep import run_sweep
from repro.traces.generator import (
    generate_equilibrium_history,
    generate_renewal_history,
)


def _square(x):
    return x * x


def _poison_three(x):
    if x == 3:
        raise ValueError("poison payload")
    return x * x


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _stuck_one(x):
    if x == 1:
        time.sleep(30.0)
    return x


class _ProcessLane:
    """Runs a contract test on the worker pool, at the test's own size."""

    executor = "process"
    #: Worker count that replaces each test's own, or ``None``.
    workers = None

    def run_shards(self, fn, payloads, *, max_workers, **kwargs):
        return run_shards(
            fn,
            payloads,
            executor=self.executor,
            max_workers=self.workers or max_workers,
            **kwargs,
        )


class _SerialLane(_ProcessLane):
    executor = "thread"
    workers = 1


class _ThreadLane(_ProcessLane):
    executor = "thread"
    workers = 4


@pytest.fixture(scope="module")
def market():
    rng = np.random.default_rng(21)
    history = generate_equilibrium_history("r3.xlarge", days=10, rng=rng)
    future = generate_renewal_history("r3.xlarge", days=5, rng=rng)
    return history, future


class TestBasics(_ProcessLane):
    def test_results_in_shard_order(self):
        result = self.run_shards(_square, list(range(10)), max_workers=2)
        assert result.results == [x * x for x in range(10)]
        assert result.ok and not result.failures and not result.reused
        assert result.stats.n_shards == 10
        assert result.stats.dispatched >= 10
        assert result.stats.worker_crashes == 0

    def test_empty_batch(self):
        result = self.run_shards(_square, [], max_workers=2)
        assert result.results == [] and result.ok
        assert result.stats.n_shards == 0

    def test_invalid_arguments(self):
        lane = {"executor": self.executor}
        with pytest.raises(SweepExecutionError):
            run_shards(_square, [1], max_workers=0, **lane)
        with pytest.raises(SweepExecutionError):
            run_shards(_square, [1, 2], keys=["only-one"], max_workers=1, **lane)
        with pytest.raises(SweepExecutionError):
            run_shards(_square, [1], shard_timeout=0, **lane)
        with pytest.raises(ValueError, match="executor"):
            run_shards(_square, [1, 2], executor="rocket", max_workers=2)


class TestBasicsSerial(_SerialLane, TestBasics):
    pass


class TestBasicsThreads(_ThreadLane, TestBasics):
    pass


class TestWorkerFaultPlans:
    def test_plans_are_deterministic(self):
        faults = WorkerFaults(seed=9)
        assert faults.plan(1, 0) == faults.plan(1, 0)
        assert WorkerFaults(seed=9).plan(1, 0) == faults.plan(1, 0)

    def test_benign_past_epoch_cap(self):
        faults = WorkerFaults(kill_rate=1.0, seed=0, max_chaos_epochs=2)
        assert faults.plan(0, 2) == BENIGN_WORKER_PLAN
        assert faults.plan(0, 2).benign
        assert not faults.plan(0, 0).benign

    def test_only_workers_scopes_chaos(self):
        faults = WorkerFaults(
            kill_rate=1.0, seed=0, only_workers=(0,), max_chaos_epochs=99
        )
        assert not faults.plan(0, 0).benign
        assert faults.plan(1, 0) == BENIGN_WORKER_PLAN

    def test_validation(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            WorkerFaults(kill_rate=1.5)
        with pytest.raises(FaultError):
            WorkerFaults(stall_rate=-0.1)
        with pytest.raises(FaultError):
            WorkerFaultPlan(stall_seconds=-1.0)


class TestCrashRecovery:
    def test_killed_workers_respawn_and_finish(self):
        # Every first-epoch worker dies before computing its first shard;
        # the respawned epoch is past the chaos cap and finishes the batch.
        faults = WorkerFaults(
            kill_rate=1.0,
            stall_rate=0.0,
            slow_start_rate=0.0,
            seed=1,
            first_shards=1,
            max_chaos_epochs=1,
        )
        result = run_shards(
            _square, list(range(12)), max_workers=2, worker_faults=faults
        )
        assert result.results == [x * x for x in range(12)]
        assert result.stats.worker_crashes >= 2
        assert result.stats.workers_respawned >= 2

    def test_chaos_requires_no_result_loss_at_any_seed(self):
        for seed in (0, 1, 2):
            faults = WorkerFaults(
                kill_rate=0.7, stall_rate=0.0, slow_start_rate=0.3, seed=seed
            )
            result = run_shards(
                _square, list(range(8)), max_workers=2, worker_faults=faults
            )
            assert result.results == [x * x for x in range(8)]


class TestStragglerSpeculation:
    def test_speculative_copy_wins_and_duplicate_is_dropped(self):
        # Worker 0 stalls hard on its first shard; worker 1 stays healthy.
        faults = WorkerFaults(
            kill_rate=0.0,
            stall_rate=1.0,
            stall_seconds=2.0,
            slow_start_rate=0.0,
            seed=0,
            first_shards=1,
            max_chaos_epochs=1,
            only_workers=(0,),
        )
        result = run_shards(
            _square,
            list(range(6)),
            max_workers=2,
            worker_faults=faults,
            straggler_factor=1.5,
            straggler_min_seconds=0.1,
        )
        assert result.results == [x * x for x in range(6)]
        assert result.stats.speculated >= 1
        # The speculative copy is a real extra dispatch, and exactly one
        # of the two copies was merged — results stayed single-valued.
        assert result.stats.dispatched >= 7

    def test_speculation_can_be_disabled(self):
        faults = WorkerFaults(
            kill_rate=0.0,
            stall_rate=1.0,
            stall_seconds=0.4,
            slow_start_rate=0.0,
            seed=0,
            first_shards=1,
            max_chaos_epochs=1,
            only_workers=(0,),
        )
        result = run_shards(
            _square,
            list(range(6)),
            max_workers=2,
            worker_faults=faults,
            speculate=False,
            straggler_factor=1.5,
            straggler_min_seconds=0.1,
        )
        assert result.results == [x * x for x in range(6)]
        assert result.stats.speculated == 0


class TestPoisonQuarantine(_ProcessLane):
    def test_strict_run_raises_with_shard_label(self):
        with pytest.raises(SweepExecutionError, match="quarantined"):
            self.run_shards(_poison_three, list(range(5)), max_workers=2)

    def test_non_strict_quarantines_after_distinct_incarnations(self):
        result = self.run_shards(
            _poison_three,
            list(range(5)),
            max_workers=2,
            strict=False,
            max_shard_failures=2,
        )
        assert [result.results[i] for i in (0, 1, 2, 4)] == [0, 1, 4, 16]
        assert result.results[3] is None
        (failure,) = result.failures
        assert failure.index == 3
        assert failure.error_type == "ValueError"
        # Two attempts; on the pool, on two distinct worker incarnations.
        assert failure.attempts == 2
        assert result.stats.quarantined == 1
        assert not result.ok

    def test_healthy_shards_unaffected_by_poison_neighbour(self):
        result = self.run_shards(
            _poison_three,
            list(range(20)),
            max_workers=3,
            strict=False,
            max_shard_failures=2,
        )
        expected = [None if x == 3 else x * x for x in range(20)]
        assert result.results == expected


class TestPoisonQuarantineSerial(_SerialLane, TestPoisonQuarantine):
    pass


class TestPoisonQuarantineThreads(_ThreadLane, TestPoisonQuarantine):
    pass


class TestShardJournal(_ProcessLane):
    def test_rerun_reuses_every_shard(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        first = self.run_shards(
            _square, list(range(8)), max_workers=2, journal=path
        )
        again = self.run_shards(
            _square, list(range(8)), max_workers=2, journal=path
        )
        assert again.results == first.results
        assert set(again.reused) == set(range(8))
        assert again.stats.reused == 8
        assert again.stats.dispatched == 0

    def test_partial_journal_recomputes_only_missing_shards(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        seeded = SweepJournal(path, signature={"suite": "t"}, fsync=True)
        for i in (0, 2, 5):
            seeded.record(f"shard:{i}", i * i)
        result = self.run_shards(
            _square,
            list(range(6)),
            max_workers=2,
            keys=[f"shard:{i}" for i in range(6)],
            journal=path,
            signature={"suite": "t"},
        )
        assert result.results == [x * x for x in range(6)]
        assert set(result.reused) == {0, 2, 5}
        assert result.stats.dispatched == 3

    def test_signature_mismatch_rejected(self, tmp_path):
        path = tmp_path / "shards.jsonl"
        self.run_shards(
            _square, [1, 2], max_workers=1, journal=path,
            signature={"chunks": 2},
        )
        with pytest.raises(SweepExecutionError, match="different"):
            self.run_shards(
                _square, [1, 2], max_workers=1, journal=path,
                signature={"chunks": 4},
            )

    def test_journal_entries_survive_worker_chaos(self, tmp_path):
        if self.executor != "process":
            pytest.skip("worker chaos needs the process pool")
        path = tmp_path / "shards.jsonl"
        faults = WorkerFaults(kill_rate=0.8, stall_rate=0.0, seed=5)
        chaotic = self.run_shards(
            _square, list(range(8)), max_workers=2, journal=path,
            worker_faults=faults,
        )
        assert chaotic.results == [x * x for x in range(8)]
        resumed = SweepJournal(path).load()
        assert len(resumed) == 8

    def test_path_journal_fsyncs_every_recorded_shard(
        self, tmp_path, monkeypatch
    ):
        # Resuming after a SIGKILL needs each finished shard on disk, not
        # in the page cache, before the scheduler moves on.
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        result = self.run_shards(
            _square, list(range(5)), max_workers=2,
            journal=tmp_path / "shards.jsonl",
        )
        assert result.results == [x * x for x in range(5)]
        assert len(synced) == 5


class TestShardJournalSerial(_SerialLane, TestShardJournal):
    pass


class TestShardJournalThreads(_ThreadLane, TestShardJournal):
    pass


class TestShardTimeout:
    def test_stuck_worker_is_killed_at_the_deadline(self):
        started = time.monotonic()
        result = run_shards(
            _stuck_one,
            [0, 1, 2],
            max_workers=2,
            shard_timeout=0.3,
            strict=False,
            max_shard_failures=1,
        )
        elapsed = time.monotonic() - started
        assert result.results == [0, None, 2]
        (failure,) = result.failures
        assert failure.index == 1
        assert failure.error_type == "TimeoutError"
        # Killed at its deadline, not waited out for its 30 s sleep.
        assert elapsed < 10.0


_DRIVER_SCRIPT = textwrap.dedent(
    """
    import sys, time
    from repro.scheduler import run_shards

    def slow(x):
        time.sleep(0.25)
        return x * x

    n_shards = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    result = run_shards(
        slow, list(range(n_shards)), max_workers=2, journal=sys.argv[1]
    )
    print("finished", len(result.results))
    """
)


class TestDriverCrashResume:
    def test_sigkilled_driver_resumes_from_journal(self, tmp_path):
        """SIGKILL the driving process mid-run; a restart recomputes
        only the shards the fsync'd journal does not already hold."""
        path = tmp_path / "crash.jsonl"
        script = tmp_path / "driver.py"
        script.write_text(_DRIVER_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            # Wait until at least two shard records hit the journal
            # (header line + 2), then kill the driver without warning.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists():
                    with open(path, "rb") as fh:
                        if sum(1 for _ in fh) >= 3:
                            break
                time.sleep(0.02)
            else:  # pragma: no cover - CI stall guard
                pytest.fail("journal never accumulated records")
            # Kill the driver's whole process group so its pool workers
            # die with it instead of outliving the test as orphans.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup guard
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

        result = run_shards(
            _slow_square, list(range(8)), max_workers=2, journal=path
        )
        assert result.results == [x * x for x in range(8)]
        assert len(result.reused) >= 2
        # Only the unfinished remainder was recomputed.
        assert result.stats.dispatched == 8 - len(result.reused)


class TestDriverKilled:
    def test_workers_exit_when_driver_is_killed(self, tmp_path):
        """SIGKILL the driver alone, mid-run: its pool workers must read
        EOF on their pipes and exit rather than outlive it as orphans."""
        path = tmp_path / "orphans.jsonl"
        script = tmp_path / "driver.py"
        script.write_text(_DRIVER_SCRIPT)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, str(script), str(path), "80"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        pgid = proc.pid  # the driver leads its own process group
        try:
            # A journaled shard (header line + 1) means the workers are
            # up and about 20 s of shards are still queued.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if path.exists():
                    with open(path, "rb") as fh:
                        if sum(1 for _ in fh) >= 2:
                            break
                time.sleep(0.02)
            else:  # pragma: no cover - CI stall guard
                pytest.fail("journal never accumulated records")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    os.killpg(pgid, 0)
                except ProcessLookupError:
                    break
                if time.monotonic() > deadline:
                    pytest.fail("pool workers outlived their SIGKILLed driver")
                time.sleep(0.05)
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.poll() is None:  # pragma: no cover - cleanup guard
                proc.kill()
                proc.wait(timeout=10)


class TestEndToEndParity:
    """Seeded fault schedules must be invisible in sweep results."""

    def _sweep(self, market, **kwargs):
        history, future = market
        job = JobSpec(execution_time=1.0, recovery_time=0.01)
        starts = [0, 40, 200, 500, 900, 1200]
        return run_sweep(
            [future] * len(starts),
            0.05,
            job,
            strategy=Strategy.PERSISTENT,
            start_slots=starts,
            **kwargs,
        )

    @staticmethod
    def _assert_reports_equal(a, b):
        for name in (
            "completed",
            "cost",
            "completion_time",
            "running_time",
            "idle_time",
            "recovery_time_used",
            "interruptions",
        ):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sweep_bitwise_identical_under_kill_chaos(self, market, seed):
        healthy = self._sweep(market)
        chaotic = self._sweep(
            market,
            executor="process",
            max_workers=2,
            worker_faults=WorkerFaults(
                kill_rate=0.8, stall_rate=0.0, slow_start_rate=0.3, seed=seed
            ),
        )
        self._assert_reports_equal(healthy, chaotic)
        assert chaotic.scheduler is not None

    def test_sweep_bitwise_identical_under_stall_chaos(self, market):
        healthy = self._sweep(market)
        chaotic = self._sweep(
            market,
            executor="process",
            max_workers=2,
            worker_faults=WorkerFaults(
                kill_rate=0.0, stall_rate=1.0, stall_seconds=0.3, seed=3,
                first_shards=1, max_chaos_epochs=1, only_workers=(0,),
            ),
        )
        self._assert_reports_equal(healthy, chaotic)

    def test_resilient_sweep_resumes_via_scheduler_journal(
        self, market, tmp_path
    ):
        path = tmp_path / "sweep.jsonl"
        first = self._sweep(
            market, executor="process", max_workers=2, journal=path
        )
        again = self._sweep(
            market, executor="process", max_workers=2, journal=path
        )
        self._assert_reports_equal(first, again)
        assert again.scheduler is not None
        assert again.scheduler.reused == again.counters.n_traces
        assert again.scheduler.dispatched == 0

    def test_worker_faults_require_process_executor(self, market):
        with pytest.raises(ValueError, match="process"):
            self._sweep(market, worker_faults=WorkerFaults(seed=0))
        with pytest.raises(ValueError, match="process"):
            self._sweep(market, item_timeout=5.0)
