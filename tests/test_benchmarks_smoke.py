"""Tier-1 smoke coverage for the benchmark suite.

The benchmarks run in full under ``pytest benchmarks/``, a CI step of
its own; this module keeps two cheap guarantees inside the default test
run: every benchmark still *collects* (imports resolve, fixtures
exist), and the sweep engine the benchmarks lean on still reproduces a
small fixed-seed result.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import JobSpec, Strategy, run_sweep
from repro.constants import DEFAULT_SLOT_HOURS

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_benchmarks_collect():
    """``pytest benchmarks -q --co`` must keep succeeding."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--co",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "bench_ablations" in result.stdout


def test_fixed_seed_smoke_sweep():
    """A tiny deterministic sweep: pins the engine's observable results."""
    tk = DEFAULT_SLOT_HOURS
    rng = np.random.default_rng(20140814)
    traces = [rng.uniform(0.01, 0.1, size=50) for _ in range(3)]
    job = JobSpec(execution_time=1.0, recovery_time=0.5 * tk, slot_length=tk)
    report = run_sweep(
        traces, [0.02, 0.06, 0.12], job, strategy=Strategy.PERSISTENT
    )
    assert report.shape == (3, 3)
    # The top bid clears every price in [0.01, 0.1): all runs complete.
    assert report.completed[:, 2].all()
    assert report.counters.cells == 9
    assert report.counters.slots_simulated > 0
    # Costs grow with the bid (more expensive slots get accepted).
    mean_cost = report.mean_completed_cost()
    finite = np.isfinite(mean_cost)
    assert np.all(np.diff(mean_cost[finite]) >= 0.0)
