"""Kernel benchmark harness: the repo's recorded perf trajectory.

``repro-bid bench`` runs the canonical workloads in
:mod:`repro.bench.cases`, each batched kernel against its scalar oracle
(event vs reference lane), verifies their outputs are bitwise identical
while the clock is running honest, and emits a versioned
``BENCH_sweep.json`` snapshot.  :mod:`repro.bench.compare` gates changes: a run whose speedup
falls more than the tolerance below the committed baseline fails.
"""

from .cases import (
    BenchCase,
    CASES,
    MapReduceBenchCase,
    SchedulerBenchCase,
    ServeBenchCase,
    case_names,
    quick_case_names,
    select_cases,
)
from .compare import Regression, compare_reports
from .runner import run_benchmarks

__all__ = [
    "BenchCase",
    "CASES",
    "MapReduceBenchCase",
    "Regression",
    "SchedulerBenchCase",
    "ServeBenchCase",
    "case_names",
    "compare_reports",
    "quick_case_names",
    "run_benchmarks",
    "select_cases",
]
