"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.constants import seconds
from repro.core.distributions import (
    EmpiricalPriceDistribution,
    TruncatedExponentialPriceDistribution,
    UniformPriceDistribution,
)
from repro.core.types import JobSpec
from repro.traces.generator import (
    generate_equilibrium_history,
    generate_renewal_history,
    market_model_for,
)


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def uniform_dist():
    """Uniform prices on [0.02, 0.10] — closed forms for everything."""
    return UniformPriceDistribution(0.02, 0.10)


@pytest.fixture
def texp_dist():
    """Truncated exponential — a strictly decreasing PDF (Prop. 5's case)."""
    return TruncatedExponentialPriceDistribution(0.03, 0.20, 0.02)


@pytest.fixture
def empirical_dist(rng):
    """An ECDF over ~2000 draws of a floor-plus-tail price process."""
    floor = np.full(1200, 0.0315)
    tail = 0.0315 + rng.exponential(0.01, size=800)
    return EmpiricalPriceDistribution(np.concatenate([floor, tail]))


@pytest.fixture
def r3_model():
    """The catalog equilibrium model for r3.xlarge (with floor atom)."""
    return market_model_for("r3.xlarge")


@pytest.fixture
def r3_history(rng):
    """A 30-day i.i.d. r3.xlarge history."""
    return generate_equilibrium_history("r3.xlarge", days=30, rng=rng)


@pytest.fixture
def r3_future(rng):
    """A 6-day sticky r3.xlarge future trace."""
    return generate_renewal_history("r3.xlarge", days=6, rng=rng)


@pytest.fixture
def hour_job():
    """The paper's canonical job: one hour, 30 s recovery."""
    return JobSpec(execution_time=1.0, recovery_time=seconds(30))


@pytest.fixture
def serve_history(rng):
    """A small floor-plus-spikes trace the serving tests build tables from."""
    from repro.traces.history import SpotPriceHistory

    prices = np.full(600, 0.0315)
    spikes = rng.integers(0, prices.size, size=60)
    prices[spikes] = rng.uniform(0.05, 0.4, size=spikes.size)
    return SpotPriceHistory(prices=prices, instance_type="r3.xlarge")


@pytest.fixture
def serve_grid():
    """A deliberately tiny grid so table builds stay fast in tests."""
    from repro.serve.tables import TableGrid

    return TableGrid(
        execution_times=(0.5, 1.0, 2.0, 4.0),
        recovery_times=(0.0, seconds(30), seconds(120)),
    )


#: The numerics the suite's sha256 pins were taken with: the numpy and
#: scipy versions perfbench/README.md records, and the SIMD target numpy
#: dispatches float64 ``power`` to (its last bits differ between targets).
PINNED_NUMERICS = ("2.4.6", "1.17.1", "X86_V4")


@pytest.fixture
def pinned_numerics():
    """Skip a bitwise sha256 pin outside the numerics it was taken with."""
    import scipy

    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        power = None
    else:
        info = opt_func_info(func_name="power", signature="float64")
        power = info.get("power", {}).get("ddd", {}).get("current")
    here = (np.__version__, scipy.__version__, power)
    if here != PINNED_NUMERICS:
        pytest.skip(f"pins taken under numpy/scipy/power {PINNED_NUMERICS}, not {here}")
