"""Exception hierarchy.

Every error carries a stable ``code`` string, so scripts can branch on
machine-readable identifiers, and the CLI's ``exit_status``: 2 for a limit of
the method (no certified global solution for this instance), 1 for every
other error.
"""

from __future__ import annotations


class CanodualError(Exception):
    """Base class for all library errors."""

    code = "ERROR"
    exit_status = 1

    def __init__(self, message: str = "", **context):
        self.context = context
        if context:
            detail = ", ".join(f"{k}={v}" for k, v in context.items())
            message = f"{message} ({detail})" if message else detail
        super().__init__(message)


class InvalidModelError(CanodualError):
    code = "INVALID_MODEL"


class NonSymmetricError(InvalidModelError):
    code = "NON_SYMMETRIC"


class NonPositiveParameterError(InvalidModelError):
    code = "NON_POSITIVE_PARAMETER"


class EmptyModelError(InvalidModelError):
    code = "EMPTY_MODEL"


class ParseError(CanodualError):
    code = "PARSE_ERROR"


class SingularMatrixError(CanodualError):
    """The shifted curvature matrix is singular where a solve is required."""

    code = "SINGULAR_GA"


class DomainError(CanodualError):
    """Dual variables outside the open feasible domain of the conjugate."""

    code = "DOMAIN"


class PoleError(DomainError):
    """Spectral dual evaluated at (or too close to) a pole."""

    code = "POLE"


class NotPositiveDefiniteError(CanodualError):
    code = "NOT_PD"


class UnboundedError(CanodualError):
    """The objective is not bounded below."""

    code = "UNBOUNDED"
    exit_status = 2


class NoDualCriticalPointError(CanodualError):
    """Existence condition failed: no dual critical point in the
    positive-definite region (a relatively hard instance)."""

    code = "NOT_EXISTS"
    exit_status = 2


class HardCaseError(CanodualError):
    """No point of the positive-definite region (tau in the open simplex, G
    positive definite) was found, the dual ascent overflowed or stalled
    on the region's boundary without reaching a critical point, or a fast
    path's maximiser has no pair (G singular to working precision there);
    the instance cannot be certified by the analytic recovery formula."""

    code = "NO_SA_PLUS_CRITICAL_POINT"
    exit_status = 2


class NotCriticalError(CanodualError):
    """A point submitted for classification is not a dual critical point."""

    code = "NOT_CRITICAL"


class DimensionTooLargeError(CanodualError):
    code = "DIMENSION_TOO_LARGE"


class ShapeMismatchError(CanodualError):
    """Instance does not match any specialized solver shape."""

    code = "SHAPE_MISMATCH"
