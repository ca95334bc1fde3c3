"""The exception hierarchy: everything derives from ReproError."""

import pytest

from repro import errors


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
