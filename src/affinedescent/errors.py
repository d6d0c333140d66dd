"""Exception types shared across the package."""


class AffineDescentError(Exception):
    """Base class for all package-specific errors."""


class ZeroGradient(AffineDescentError):
    """Gradient norm is numerically zero; no normal direction exists."""


class NotSymmetric(AffineDescentError):
    """Matrix fails the symmetry tolerance for a symmetric-only operation."""


class NotFactorized(AffineDescentError):
    """SPD solve requested on a classification without a Cholesky factor."""


class DegenerateTangentBlock(AffineDescentError):
    """Tangent Hessian block is singular; the direction formula divides by it."""


class SingularHessian(AffineDescentError):
    """Newton solve on a singular Hessian without regularization."""


class NonFiniteHessian(AffineDescentError):
    """Hessian oracle returned infs or NaNs."""


class DomainViolation(AffineDescentError):
    """A finite-difference stencil left the objective's domain."""


class NotDescent(AffineDescentError):
    """Line search started along a non-descent direction."""


class NoFiniteStep(AffineDescentError):
    """No finite objective value found along the search ray."""


class EmptySlice(AffineDescentError):
    """Sublevel slice contains no points inside the scan window."""


class SingularB(AffineDescentError):
    """Affine change-of-variables matrix is singular or not orientation-preserving."""


class MissingReference(AffineDescentError):
    """Rate computation needs a reference optimum that was not provided."""


class UnknownProblem(AffineDescentError):
    """Requested name is not in the problem catalog."""
