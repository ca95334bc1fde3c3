"""Resilient run_sweep: isolation, bitwise-identical partial reports,
journal resume, and fault-injected sweeps."""

import numpy as np
import pytest

from repro.core.types import JobSpec, Strategy
from repro.errors import SweepExecutionError
from repro.scheduler.journal import SweepJournal
from repro.resilience.faults import FaultInjector, PriceSpike, SlotDropout
from repro.sweep import engine, run_sweep


@pytest.fixture
def job():
    return JobSpec(execution_time=0.5, recovery_time=0.01)


@pytest.fixture
def traces(rng):
    return [rng.uniform(0.02, 0.1, size=200) for _ in range(100)]


BIDS = [0.03, 0.06, 0.09]


class TestPartialReport:
    def test_worker_fault_yields_partial_report_with_identical_rows(
        self, job, traces, monkeypatch
    ):
        clean = run_sweep(traces, BIDS, job)
        assert not clean.is_partial

        fail_for = {7, 42}
        original = engine._run_kernel_chunk

        def flaky(args):
            prices = engine._resolve_payload(args[1])[0]
            for i in fail_for:
                if np.array_equal(prices[0], traces[i]):
                    raise RuntimeError(f"injected worker fault on trace {i}")
            return original(args)

        monkeypatch.setattr(engine, "_run_kernel_chunk", flaky)
        report = run_sweep(traces, BIDS, job, strict=False)

        assert report.is_partial
        assert report.failed_traces() == (7, 42)
        assert {f.error_type for f in report.failures} == {"RuntimeError"}

        # Failed rows are unmistakable placeholders...
        for i in fail_for:
            assert not report.completed[i].any()
            assert np.isnan(report.cost[i]).all()
        # ...and every other row is bitwise identical to the clean run.
        ok = np.ones(len(traces), dtype=bool)
        ok[list(fail_for)] = False
        assert np.array_equal(report.completed[ok], clean.completed[ok])
        assert np.array_equal(report.cost[ok], clean.cost[ok])
        assert np.array_equal(
            report.completion_time[ok], clean.completion_time[ok]
        )
        assert np.array_equal(
            report.interruptions[ok], clean.interruptions[ok]
        )

    def test_strict_mode_raises(self, job, traces, monkeypatch):
        def always_fail(_args):
            raise RuntimeError("doomed")

        monkeypatch.setattr(engine, "_run_kernel_chunk", always_fail)
        with pytest.raises(SweepExecutionError):
            run_sweep(
                traces[:3], BIDS, job, strict=True, item_timeout=5.0,
                executor="process",
            )

    def test_retry_recovers_transient_faults(self, job, traces, monkeypatch):
        clean = run_sweep(traces[:10], BIDS, job)
        original = engine._run_kernel_chunk
        fails_left = {"n": 3}

        def transient(args):
            if fails_left["n"] > 0:
                fails_left["n"] -= 1
                raise RuntimeError("transient")
            return original(args)

        monkeypatch.setattr(engine, "_run_kernel_chunk", transient)
        report = run_sweep(traces[:10], BIDS, job, retries=3)
        assert not report.is_partial
        assert np.array_equal(report.cost, clean.cost)


class TestJournalResume:
    def test_resume_recomputes_only_failed_items(
        self, job, traces, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.journal"
        clean = run_sweep(traces, BIDS, job)

        fail_for = {3, 55}
        original = engine._run_kernel_chunk

        def flaky(args):
            prices = engine._resolve_payload(args[1])[0]
            for i in fail_for:
                if np.array_equal(prices[0], traces[i]):
                    raise RuntimeError("injected")
            return original(args)

        monkeypatch.setattr(engine, "_run_kernel_chunk", flaky)
        partial = run_sweep(traces, BIDS, job, strict=False, journal=path)
        assert partial.failed_traces() == (3, 55)

        # Second run with a healthy kernel that counts invocations.
        calls = []

        def counting(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(engine, "_run_kernel_chunk", counting)
        resumed = run_sweep(traces, BIDS, job, strict=False, journal=path)

        assert len(calls) == len(fail_for)  # only the failed items re-ran
        assert not resumed.is_partial
        # The resumed report matches a fault-free run bitwise, including
        # the rows that round-tripped through the JSON journal.
        assert np.array_equal(resumed.completed, clean.completed)
        assert np.array_equal(resumed.cost, clean.cost)
        assert np.array_equal(resumed.completion_time, clean.completion_time)
        assert np.array_equal(resumed.running_time, clean.running_time)
        assert np.array_equal(resumed.interruptions, clean.interruptions)
        assert resumed.interruptions.dtype == clean.interruptions.dtype
        assert resumed.completed.dtype == clean.completed.dtype

    def test_journal_from_other_sweep_rejected(self, job, traces, tmp_path):
        path = tmp_path / "sweep.journal"
        run_sweep(traces[:5], BIDS, job, strict=False, journal=path)
        with pytest.raises(SweepExecutionError, match="different"):
            run_sweep(traces[:5], [0.05], job, strict=False, journal=path)

    def test_explicit_journal_object_accepted(self, job, traces, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        report = run_sweep(traces[:4], BIDS, job, journal=journal)
        assert not report.is_partial
        assert journal.load()  # items were persisted


def perturbed(injector, traces):
    """Trace ``i`` perturbed with ``injector.derive(i)``: reproducible per
    root seed, independent across traces."""
    return [injector.derive(i).perturb_prices(t) for i, t in enumerate(traces)]


class TestFaultedSweep:
    def test_faults_are_reproducible_per_seed(self, job, traces):
        injector = FaultInjector(
            [PriceSpike(rate=0.05, magnitude=5.0), SlotDropout(rate=0.1)],
            seed=13,
        )
        a = run_sweep(perturbed(injector, traces[:10]), BIDS, job)
        b = run_sweep(perturbed(injector, traces[:10]), BIDS, job)
        assert np.array_equal(a.cost, b.cost, equal_nan=True)
        assert np.array_equal(a.completed, b.completed)

    def test_faults_change_outcomes(self, job, rng):
        # A spike storm above every bid must hurt at least one cell.
        quiet = [np.full(120, 0.025) for _ in range(4)]
        clean = run_sweep(quiet, BIDS, job, strategy=Strategy.ONE_TIME)
        injector = FaultInjector([PriceSpike(rate=0.3, magnitude=50)], seed=1)
        faulted = run_sweep(
            perturbed(injector, quiet), BIDS, job, strategy=Strategy.ONE_TIME
        )
        assert clean.completed.all()
        assert not faulted.completed.all()
