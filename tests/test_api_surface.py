"""The public API surface: exports resolve, docstrings exist.

Guards against broken ``__all__`` lists and silently-undocumented
public names — the kind of rot a library accumulates as modules move.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.provider",
    "repro.traces",
    "repro.market",
    "repro.mapreduce",
    "repro.analysis",
    "repro.extensions",
    "repro.experiments",
    "repro.sweep",
    "repro.resilience",
    "repro.serve",
]

MODULES = [
    "repro.core.costs",
    "repro.core.distributions",
    "repro.core.onetime",
    "repro.core.persistent",
    "repro.core.mapreduce",
    "repro.core.heuristics",
    "repro.core.client",
    "repro.core.distcache",
    "repro.core.adaptive",
    "repro.core.fleet",
    "repro.provider.arrivals",
    "repro.provider.pricing",
    "repro.provider.equilibrium",
    "repro.provider.queue",
    "repro.provider.lyapunov",
    "repro.provider.fitting",
    "repro.traces.catalog",
    "repro.traces.history",
    "repro.traces.generator",
    "repro.traces.io",
    "repro.market.simulator",
    "repro.market.billing",
    "repro.market.fastpath",
    "repro.market.outcomes",
    "repro.market.price_sources",
    "repro.sweep.engine",
    "repro.sweep.kernels",
    "repro.sweep.report",
    "repro.mapreduce.runner",
    "repro.mapreduce.tasks",
    "repro.extensions.risk",
    "repro.extensions.dag",
    "repro.extensions.forecasting",
    "repro.extensions.checkpointing",
    "repro.extensions.collective",
    "repro.extensions.correlated",
    "repro.extensions.spot_blocks",
    "repro.analysis.trace_stats",
    "repro.resilience.faults",
    "repro.resilience.execution",
    "repro.resilience.chaos",
    "repro.serve.tables",
    "repro.serve.ingest",
    "repro.serve.cache",
    "repro.serve.protocol",
    "repro.serve.service",
    "repro.serve.loadgen",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} lacks __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} has no docstring"
    for symbol in module.__all__:
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            # Only police objects defined in this module (re-exports are
            # documented at their home).
            if getattr(obj, "__module__", name) != name:
                continue
            assert (
                obj.__doc__ and obj.__doc__.strip()
            ), f"{name}.{symbol} has no docstring"


def test_root_exports_cover_the_quickstart():
    import repro

    for symbol in (
        "BiddingClient", "JobSpec", "get_instance_type",
        "generate_equilibrium_history", "generate_renewal_history",
        "plan_master_slave", "optimal_onetime_bid", "optimal_persistent_bid",
        "SpotMarket", "seconds",
    ):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)


def test_root_exports_cover_the_sweep_layer():
    """Regression: the sweep engine and Strategy enum stay re-exported."""
    import repro

    for symbol in (
        "Strategy", "normalize_strategy", "OutcomeStats",
        "run_sweep", "SweepReport", "SweepCounters",
    ):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)
    assert repro.run_sweep is repro.sweep.run_sweep


def test_root_exports_cover_the_decision_api():
    """Regression: the request/response decision API stays exported."""
    import repro

    for symbol in ("DecisionRequest", "DecisionResponse"):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)


def test_version_is_set():
    import repro

    assert repro.__version__ == "1.0.0"


def test_root_exports_cover_the_resilience_layer():
    """Regression: fault injection and resilient execution stay exported."""
    import repro

    for symbol in (
        "FaultInjector", "FaultSpec", "PriceSpike", "RevocationStorm",
        "ItemFailure", "SweepJournal",
        "DegradedDecision", "default_fault_suite", "run_chaos",
        "FaultError", "SweepExecutionError",
    ):
        assert symbol in repro.__all__
        assert hasattr(repro, symbol)
    assert repro.run_chaos is repro.resilience.run_chaos
