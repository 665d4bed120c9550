"""Exception types shared across the package.

Everything derives from MetriqError so callers can catch domain failures
with a single except clause while I/O and usage errors stay separate.
Warnings flag results that are returned but not known to be converged or
certified.
"""


class MetriqError(ValueError):
    """Base class for all domain errors raised by this package."""


class NotSquareError(MetriqError):
    """Matrix operation requires a square matrix."""


class NotHermitianError(MetriqError):
    """Matrix fails the Hermiticity tolerance."""


class NotPsdError(MetriqError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class NotPositiveDefiniteError(MetriqError):
    """Metric candidate has an eigenvalue at or below the cutoff."""


class DimMismatchError(MetriqError):
    """Operands have incompatible dimensions."""


class SupernormalizedError(MetriqError):
    """State lies outside the (possibly metric-weighted) unit ball."""


class MetricExceedsIdentityError(MetriqError):
    """Channel construction requires a subidentity metric."""


class BrokenPtRegimeError(MetriqError):
    """Parameters lie outside the unbroken PT region s > r sin(phi) >= 0."""


class NegativeParameterError(MetriqError):
    """Hamiltonian parameters violate r >= 0 or s > 0."""


class InvalidDensityOperatorError(MetriqError):
    """Input is not a valid (subnormalized) density operator."""


class NotNormalizedError(MetriqError):
    """Dilation requires a metric with unit operator norm."""


class SingularDesignError(MetriqError):
    """Tomography design does not span the operator space."""


class DegenerateMetricError(MetriqError):
    """Verification threshold undefined for (near-)degenerate metrics."""


class IterationCapWarning(UserWarning):
    """An iterative estimator stopped at its iteration cap before converging."""


class UncertifiedAcceptWarning(UserWarning):
    """An accept whose distance an upper bound on the norm does not certify."""
