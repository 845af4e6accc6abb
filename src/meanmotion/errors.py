"""Exception hierarchy shared by all meanmotion modules."""


class MeanMotionError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(MeanMotionError, ValueError):
    """Vector length does not match the ambient dimension."""


class DegenerateInputError(MeanMotionError, ValueError):
    """Input is degenerate (identically zero sum, all-zero exponents, ...)."""


class MembershipError(MeanMotionError, ValueError):
    """A vector does not lie in the integer lattice spanned by a basis."""


class InternalConsistencyError(MeanMotionError):
    """A self-check (exact reconstruction, shift identity) failed."""


class SingularContourError(MeanMotionError, RuntimeError):
    """No zero-free contour could be certified after all perturbations."""


class EndpointZeroError(MeanMotionError, RuntimeError):
    """A zero sits at (or numerically on top of) a window endpoint."""


class TrackingError(MeanMotionError, RuntimeError):
    """Continuous-phase tracking failed to converge."""


class PolynomialLoadError(MeanMotionError, ValueError):
    """A polynomial file failed validation."""
