"""Exception types shared across the package."""


class LpmechError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LpmechError):
    """An input vector or matrix has the wrong size for the map it feeds."""


class NumericalFailure(LpmechError):
    """A computation broke down numerically.

    ``t`` and ``q`` locate the failure when known; the fixed-step integrator
    fills them in with the last accepted step for failures raised inside
    a step.
    """

    def __init__(self, message, q=None, t=None):
        super().__init__(message)
        self.q = q
        self.t = t


class ChartExit(NumericalFailure):
    """A state left the chart through a non-periodic coordinate."""


class NonFiniteState(NumericalFailure):
    """An integration step produced an infinite or NaN state entry."""


class SingularHessian(NumericalFailure):
    """The velocity-block Hessian is non-finite or numerically singular
    (condition > 1e12)."""


class NoConvergence(NumericalFailure):
    """An iterative solve did not reach the requested tolerance."""


class AxiomViolation(LpmechError):
    """A bundle that must satisfy the closure conditions failed the checker."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvarianceViolation(LpmechError):
    """A Lagrangian declared invariant changes under the group action."""

    def __init__(self, message, worst_sample=None, residual=None):
        super().__init__(message)
        self.worst_sample = worst_sample
        self.residual = residual


class NotNormal(LpmechError):
    """The selected subspace is not an ideal of the ambient Lie algebra."""


class NotSupported(LpmechError):
    """The requested construction is outside the implemented scope."""


class ConfigError(LpmechError):
    """A run configuration failed validation; the message names the key."""
