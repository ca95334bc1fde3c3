"""Exception hierarchy for the spot-bidding reproduction.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DistributionError(ReproError):
    """A price or arrival distribution was constructed or queried invalidly."""


class SupportError(DistributionError):
    """A query fell outside the support of a distribution."""


class SpecError(ReproError, ValueError):
    """A job spec or decision request field is out of range, or
    ``run_sweep``/``run_shards`` got a strategy, executor or option they
    cannot run with.

    Also a :class:`ValueError`, which these checks raised before they
    had a type of their own, so callers catching that keep working.
    """


class InfeasibleBidError(ReproError):
    """No bid price satisfies the optimization problem's constraints.

    Raised, for example, when a job's recovery time violates the
    interruptibility condition (eq. 14) at every admissible bid price, or
    when every spot bid would cost more than running on demand.
    """


class FittingError(ReproError):
    """Least-squares fitting of the spot-price PDF failed to converge."""


class MarketError(ReproError):
    """The spot-market simulator was driven into an invalid state."""


class TraceError(ReproError):
    """A spot-price trace is malformed (unsorted, negative prices, ...)."""


class CatalogError(ReproError):
    """An unknown instance type was requested from the catalog."""


class PlanError(ReproError):
    """A MapReduce bidding plan is inconsistent or infeasible."""


class FaultError(ReproError):
    """A fault-injection spec is invalid or cannot be applied to a trace."""


class SweepExecutionError(ReproError):
    """A sweep work item failed permanently (retries exhausted, timeout,
    or a journal that does not match the sweep being resumed)."""


class ServeError(ReproError):
    """The bid-decision service was misconfigured or asked an
    unanswerable question (job outside every table's grid coverage,
    malformed wire request, ...)."""
