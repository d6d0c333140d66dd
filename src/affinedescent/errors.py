"""Exception types shared across the package.

An AffineDescentError is a numerical outcome at a point: the method met a
vanishing gradient, a singular block, a non-finite derivative, a domain wall
or an empty slice, and cannot continue from there. A run ends on those it
meets with a RunStatus; the CLI exits 3 on any that reaches it. Anything the
caller got wrong (an unknown name, a wrong shape or dimension, a matrix that
cannot serve, a missing argument) is a ValueError, and the CLI exits 1.
"""


class AffineDescentError(Exception):
    """Base class for the numerical outcomes that stop the method."""


class ZeroGradient(AffineDescentError):
    """Gradient norm is numerically zero; no normal direction exists."""


class DegenerateTangentBlock(AffineDescentError):
    """Tangent Hessian block is singular; the direction formula divides by it."""


class SingularHessian(AffineDescentError):
    """Newton solve on a singular Hessian without regularization."""


class NonFiniteHessian(AffineDescentError):
    """Hessian oracle returned infs or NaNs."""


class NonFiniteThird(AffineDescentError):
    """Third-derivative oracle returned an inf or a NaN."""


class DomainViolation(AffineDescentError):
    """A finite-difference stencil left the objective's domain."""


class EmptySlice(AffineDescentError):
    """Sublevel slice contains no points inside the scan window."""
