"""SciPy and networkx load only when a computation needs them.

At module level the package imports only the stdlib, numpy and itself;
SciPy and networkx are imported inside the functions that call them
(docs/development.md), and ``multiprocessing`` inside the functions that
fork, attach shared memory or start threads.  Each check runs in a fresh
interpreter, because this test process has loaded all of them long
before it gets here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prints the sorted names of the loaded ``scipy*``/``networkx*`` modules.
_REPORT = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
)))
"""

#: The numpy-only paths: every entry point's import, a serial sweep, the
#: serve state's first table build, one decide of each kind the daemon
#: serves, and a rebuild after ingesting more prices.  None of them
#: forks, so none loads ``multiprocessing`` either.
_NUMPY_ONLY = """
import sys

import numpy as np

import repro
import repro.cli
import repro.experiments.report
import repro.scheduler
import repro.serve
import repro.sweep
from repro.constants import seconds
from repro.core.types import DecisionRequest, JobSpec, Strategy
from repro.market.price_sources import TracePriceSource
from repro.serve.ingest import MarketState
from repro.serve.service import BidService
from repro.serve.tables import TableGrid
from repro.sweep import run_sweep
from repro.traces.history import SpotPriceHistory

rng = np.random.default_rng(7)
prices = np.full(600, 0.0315)
spikes = rng.integers(0, prices.size, size=60)
prices[spikes] = rng.uniform(0.05, 0.4, size=spikes.size)
history = SpotPriceHistory(prices=prices, instance_type="r3.xlarge")
job = JobSpec(execution_time=1.0, recovery_time=seconds(30))
grid = TableGrid(execution_times=(0.5, 1.0, 2.0), recovery_times=(0.0, seconds(30)))

run_sweep(
    [prices[:300], prices[300:]], np.linspace(0.03, 0.4, 8), job, max_workers=1
)
state = MarketState(
    TracePriceSource(history), initial_history=history, ondemand_price=0.35, grid=grid
)
service = BidService(state)
for strategy in (
    Strategy.PERSISTENT, Strategy.ONE_TIME, Strategy.PERCENTILE, Strategy.PORTFOLIO
):
    response = service.handle(DecisionRequest(job=job, strategy=strategy))
    assert response.degradation_reason is None, response
state.advance(4)
state.rebuild()
forking = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
assert not forking, forking
"""

#: The converse: the two calls that do need each package load it.
_NEEDS_BOTH = """
import sys

from repro.analysis.distributions import ks_two_sample
from repro.constants import seconds
from repro.core.distributions import UniformPriceDistribution
from repro.core.types import JobSpec
from repro.extensions.dag import TaskGraph, plan_dag

assert "scipy" not in sys.modules and "networkx" not in sys.modules
ks_two_sample([0.1, 0.2, 0.3], [0.2, 0.3, 0.4])
assert "scipy" in sys.modules and "networkx" not in sys.modules
job = JobSpec(execution_time=1.0, recovery_time=seconds(30))
plan_dag(
    UniformPriceDistribution(0.02, 0.10),
    TaskGraph(tasks={"a": job, "b": job}, edges=[("a", "b")]),
)
"""


def _loaded_after(script: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_numpy_only_paths_load_neither_scipy_nor_networkx():
    assert _loaded_after(_NUMPY_ONLY) == []


def test_scipy_and_networkx_load_where_called():
    roots = {name.split(".")[0] for name in _loaded_after(_NEEDS_BOTH)}
    assert roots == {"scipy", "networkx"}
