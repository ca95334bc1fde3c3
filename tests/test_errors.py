"""The exception hierarchy: everything derives from ReproError."""

import numpy as np
import pytest

import repro
from repro import errors
from repro.resilience.faults import WorkerFaults
from repro.scheduler import run_shards


@pytest.mark.parametrize(
    "exc",
    [
        errors.DistributionError,
        errors.SupportError,
        errors.InfeasibleBidError,
        errors.FittingError,
        errors.MarketError,
        errors.TraceError,
        errors.CatalogError,
        errors.PlanError,
        errors.FaultError,
        errors.SweepExecutionError,
        errors.SpecError,
    ],
)
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)
    with pytest.raises(errors.ReproError):
        raise exc("boom")


def test_support_error_is_a_distribution_error():
    assert issubclass(errors.SupportError, errors.DistributionError)


def test_catching_repro_error_does_not_catch_value_error():
    with pytest.raises(ValueError):
        try:
            raise ValueError("not ours")
        except errors.ReproError:  # pragma: no cover - must not trigger
            pytest.fail("ReproError must not swallow ValueError")


def _sweep(**kwargs):
    return repro.run_sweep(
        [np.full(10, 0.03)], [0.05], repro.JobSpec(1.0), **kwargs
    )


def _shards(**kwargs):
    return run_shards(abs, [1, 2], **kwargs)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: _sweep(strategy=repro.Strategy.PERCENTILE),
            id="sweep-percentile",
        ),
        pytest.param(
            lambda: _sweep(strategy=repro.Strategy.PORTFOLIO),
            id="sweep-portfolio",
        ),
        pytest.param(
            lambda: _sweep(strategy=repro.Strategy.CVAR), id="sweep-cvar"
        ),
        pytest.param(lambda: _sweep(executor="procs"), id="sweep-executor"),
        pytest.param(lambda: _shards(executor="procs"), id="shards-executor"),
        pytest.param(
            lambda: _shards(executor="thread", shard_timeout=1.0),
            id="shards-thread-timeout",
        ),
        pytest.param(
            lambda: _shards(executor="thread", worker_faults=WorkerFaults()),
            id="shards-thread-worker-faults",
        ),
    ],
)
def test_sweep_and_scheduler_argument_errors_are_repro_errors(call):
    """A strategy ``run_sweep`` cannot sweep, an unknown executor and a
    process-only option on the thread lane are typed library errors,
    and still the ValueError these checks raised before."""
    with pytest.raises(repro.ReproError) as info:
        call()
    assert isinstance(info.value, ValueError)
