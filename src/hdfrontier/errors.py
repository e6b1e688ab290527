"""Exception hierarchy for hdfrontier.

Every library-raised error derives from :class:`HDFrontierError` so callers
can catch one base class.  Errors that are really argument problems also
derive from :class:`ValueError`.
"""


class HDFrontierError(Exception):
    """Base class for all hdfrontier errors."""


class InputValidationError(HDFrontierError, ValueError):
    """An argument failed validation."""


class DimensionMismatch(InputValidationError):
    """Vector/matrix shapes are incompatible."""


class AsymmetricMatrix(InputValidationError):
    """A covariance/precision matrix is asymmetric beyond tolerance."""


class CholeskyFailure(HDFrontierError):
    """A matrix that must be positive definite failed to factor."""


class NotPositiveDefinite(CholeskyFailure):
    """A supplied precision matrix is not positive definite."""


class SingularCovariance(CholeskyFailure):
    """The sample covariance matrix is singular (e.g. n <= p)."""


class InvalidConstants(InputValidationError):
    """Frontier constants violate their defining inequalities."""


class InvalidParams(InputValidationError):
    """Frontier parameters violate their defining inequalities."""


class InvalidRange(InputValidationError):
    """A requested grid or range is empty or inverted."""


class TooFewObservations(InputValidationError):
    """The sample is too small for the requested estimator."""


class RatioOutOfRange(InputValidationError):
    """A concentration ratio p/n lies outside the admissible interval."""


class ZeroTrace(HDFrontierError):
    """The sample covariance has non-positive trace; shrinkage undefined."""


class InvalidLevel(InputValidationError):
    """A confidence level lies outside (0, 1)."""


class InvalidReportKind(InputValidationError):
    """An estimate report of the wrong kind was supplied."""


class BranchAmbiguity(HDFrontierError):
    """The resolvent root is not uniquely determined at this point."""


class PoleAtZ(HDFrontierError):
    """The requested transform has a pole at the evaluation point."""


class SingularMatrix(HDFrontierError):
    """A Monte Carlo diagnostic needs an invertible matrix but n <= p."""


class TooFewReps(InputValidationError):
    """Not enough Monte Carlo replications for the requested summary."""


class ParseError(HDFrontierError):
    """A CSV input could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyPanel(HDFrontierError):
    """A returns panel contains no usable rows."""


class WindowTooShort(InputValidationError):
    """The rolling window does not fit into the panel."""


class RaggedDayWarning(UserWarning):
    """A trading day's row count is not divisible by the aggregation step."""
