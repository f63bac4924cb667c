"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain a routine is defined on."""


class PreconditionError(ValueError):
    """Input data violates a documented precondition (support, alignment, ...)."""


class GridMismatchError(ValueError):
    """Two sampled functions do not share the same segment structure."""


class RefinementError(RuntimeError):
    """Root refinement failed to converge; carries the last iterate."""

    def __init__(self, message, last=None, last_value=None):
        super().__init__(message)
        self.last = last
        self.last_value = last_value


class ContourError(RuntimeError):
    """A counting contour could not be certified (root too close, etc.)."""


class IncompleteSpectrumError(RuntimeError):
    """Located roots and a certified count disagree after every search."""


class NoEigenvaluesError(RuntimeError):
    """The discretized operator has no eigenvalue above the cutoff."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""
