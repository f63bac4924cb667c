"""Exception types shared across the package, each one a ``DelaySLError``."""


class DelaySLError(Exception):
    """Base of every exception the package raises on purpose."""


class DomainError(DelaySLError, ValueError):
    """An argument lies outside the domain a routine is defined on."""


class PreconditionError(DelaySLError, ValueError):
    """Input data violates a documented precondition (support, alignment, ...)."""


class GridMismatchError(DelaySLError, ValueError):
    """Two sampled functions do not share the same segment structure."""


class RefinementError(DelaySLError, RuntimeError):
    """Root refinement failed to converge; carries the last iterate."""

    def __init__(self, message, last=None, last_value=None):
        super().__init__(message)
        self.last = last
        self.last_value = last_value


class ContourError(DelaySLError, RuntimeError):
    """A counting contour could not be certified (root too close, etc.)."""


class IncompleteSpectrumError(DelaySLError, RuntimeError):
    """Located roots and a certified count disagree after every search."""


class NoEigenvaluesError(DelaySLError, RuntimeError):
    """The discretized operator has no eigenvalue above the cutoff."""


class ConsistencyError(DelaySLError, RuntimeError):
    """Two independent computations of the same quantity disagree."""
