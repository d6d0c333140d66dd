"""Dense linear-algebra kernels: gradient-aligned frames, symmetric
classification with a reusable Cholesky factor, the one symmetric solve,
and small utilities.

Everything here is deterministic and works on float64 numpy arrays. A
positive-definite matrix M = L L^T is solved through W = L^{-T}, so that
M^{-1} = W W^T and a solve is two matrix-vector products. On a 1x1 or
diagonal system this computes (b * (1/sqrt(a))) * (1/sqrt(a)), the same
bits as LAPACK's potrf/potrs.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ZeroGradient

# float64 arrays; plain np.ndarray keeps numpy.typing out of the import.
Vector = np.ndarray
Matrix = np.ndarray

# Below this the gradient is treated as exactly zero.
ZERO_GRAD_FLOOR = 1e-300
# Relative tolerance, scaled by max(1, ||M||_inf).
DEGENERACY_TOL = 1e-10

NON_FINITE_MATRIX = "matrix must not contain infs or NaNs"


def as_vector(x, dim: int | None = None) -> Vector:
    """x as a 1-d float array; of length dim when dim is given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.size}")
    return v


def norm2(v) -> float:
    """Euclidean norm of a float vector: the package's one scaled norm.

    Wherever 1e-146 <= sqrt(v.v) < inf it performs the same operations as
    np.linalg.norm(v), hence returns the same bits, without its dispatch
    overhead. Below that v.v may have underflowed (1e-146 is about
    sqrt(tiny/eps)), and above it v.v has overflowed: there it scales by
    the largest |entry| first, so every finite vector has its norm, from
    the least subnormal to the float maximum.
    """
    v = v.ravel(order="K")
    try:
        ss = v.dot(v)
    except RuntimeWarning:   # the overflow, where warnings are errors
        ss = math.inf
    r = math.sqrt(ss)
    if 1e-146 <= r < math.inf:
        return r
    scale = float(np.abs(v).max(initial=0.0))
    if not 0.0 < scale < math.inf:   # zero, empty, inf or NaN
        return scale
    w = v / scale
    return scale * math.sqrt(w.dot(w))


def positive_finite(name: str, value) -> None:
    """Raise ValueError unless 0 < value < inf; NaN fails the test."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive")


class Frame(NamedTuple):
    """Orthonormal basis adapted to a gradient: columns of `basis` are
    n-1 tangent vectors followed by the unit gradient direction."""

    basis: Matrix
    grad_norm: float

    @property
    def tangent(self) -> Matrix:
        return self.basis[:, :-1]

    @property
    def normal(self) -> Vector:
        return self.basis[:, -1]


def build_gradient_frame(grad) -> Frame:
    """Orthonormal frame whose last column is grad/||grad||.

    Uses a single Householder reflection mapping s*e_last to the unit
    gradient (s chosen so the reflector is well conditioned); its first
    n-1 columns are the tangent vectors, and the unit gradient itself is
    stored as the last column in place of s times the reflection's.
    Deterministic in the input bits; at n = 2 it computes the same bits in
    scalars. Raises ValueError below dimension 2 or on non-finite entries,
    and ZeroGradient when the norm is numerically zero.
    """
    g = as_vector(grad)
    if g.size < 2:
        raise ValueError(
            f"frame construction needs dimension >= 2, got {g.size}")
    if not np.isfinite(g).all():
        raise ValueError("gradient has non-finite entries")
    gnorm = norm2(g)
    if gnorm <= ZERO_GRAD_FLOOR:
        raise ZeroGradient(f"gradient norm {gnorm:g} below {ZERO_GRAD_FLOOR:g}")
    n_hat = g / gnorm
    # Reflector u = n_hat - s*e_last with s opposing n_hat[-1]: no cancellation.
    s = -1.0 if n_hat[-1] >= 0.0 else 1.0
    if n_hat.size == 2:
        n0, n1 = n_hat.tolist()
        u = np.array([n0, n1 - s])
        k = 2.0 / float(u.dot(u))   # a numpy dot, as u @ u below
        u0, u1 = u.tolist()
        return Frame(basis=np.array([[1.0 - k * (u0 * u0), n0],
                                     [0.0 - k * (u1 * u0), n1]]),
                     grad_norm=gnorm)
    u = n_hat.copy()
    u[-1] -= s
    basis = np.eye(n_hat.size) - (2.0 / float(u @ u)) * np.outer(u, u)
    basis[:, -1] = n_hat
    return Frame(basis=basis, grad_norm=gnorm)


class DefinitenessTag(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    SINGULAR = "Singular"
    OTHER_INDEFINITE = "OtherIndefinite"


class SymmetricClass(NamedTuple):
    """Classification of a symmetric matrix with its ascending eigenvalues
    and, when positive definite, a Cholesky factor reusable by solve_spd.

    `factor` is W = L^{-T} for the lower Cholesky factor L of `matrix`, so
    that W W^T = matrix^{-1}. It comes from a general inverse of L, so its
    strict lower triangle holds rounding noise rather than exact zeros.
    """

    tag: DefinitenessTag
    eigs: Vector     # ascending
    matrix: Matrix
    scale: float     # max(1, ||matrix||_inf), the scale of its thresholds
    factor: Matrix | None = None

    @property
    def min_eig(self) -> float:
        return float(self.eigs[0])

    @property
    def is_positive_definite(self) -> bool:
        return self.tag is DefinitenessTag.POSITIVE_DEFINITE

    @property
    def det_sign(self) -> float:
        """sign(det M) from the parity of the negative eigenvalues, counted
        by bisecting the ascending eigs; meaningful unless Singular."""
        return -1.0 if bisect_left(self.eigs.tolist(), 0.0) % 2 else 1.0


def definiteness_tag(lowest: float, nearest_zero: float,
                     scale: float) -> DefinitenessTag:
    """The tag of a symmetric matrix with lowest eigenvalue `lowest`, least
    |eigenvalue| `nearest_zero` and scale max(1, ||M||_inf): positive
    definite above DEGENERACY_TOL * scale, Singular when an eigenvalue lies
    within that threshold of zero, otherwise OtherIndefinite."""
    thresh = DEGENERACY_TOL * scale
    if lowest > thresh:
        return DefinitenessTag.POSITIVE_DEFINITE
    if nearest_zero <= thresh:
        return DefinitenessTag.SINGULAR
    return DefinitenessTag.OTHER_INDEFINITE


def classify_symmetric(M) -> SymmetricClass:
    """Classify the symmetric part S = 0.5 * (M + M^T) of a square M by
    definiteness_tag, at scale max(1, ||S||_inf). Raises ValueError, and
    does not warn, when M is not square or S holds infs or NaNs; the
    latter also catches entries above half the float maximum, whose sum
    overflows."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        S = 0.5 * (A + A.T)
    norm = float(np.abs(S).max())
    if not math.isfinite(norm):
        raise ValueError(NON_FINITE_MATRIX)
    scale = max(1.0, norm)
    eigs = np.linalg.eigvalsh(S)
    lowest = float(eigs[0])
    # A positive lowest eigenvalue is also the least |eigenvalue|.
    tag = definiteness_tag(
        lowest, lowest if lowest > 0.0 else float(np.abs(eigs).min()), scale)
    factor = (np.linalg.inv(np.linalg.cholesky(S)).T
              if tag is DefinitenessTag.POSITIVE_DEFINITE else None)
    return SymmetricClass(tag=tag, eigs=eigs, matrix=S, scale=scale,
                          factor=factor)


def solve_spd(cls: SymmetricClass, rhs) -> Vector:
    """Solve M x = rhs (a vector or a matrix of columns) as W (W^T rhs),
    with the Cholesky factor W stored by classify_symmetric. rhs is left
    unmodified.

    Raises ValueError when the matrix was not classified positive definite,
    so has no factor, and when rhs holds infs or NaNs.
    """
    W = cls.factor
    if W is None:
        raise ValueError(f"solve_spd needs a positive definite matrix, got "
                         f"tag={cls.tag.value}")
    b = np.asarray(rhs, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    return W.dot(W.T.dot(b))


def solve_symmetric(cls: SymmetricClass, rhs) -> Vector:
    """Solve M x = rhs for a classified matrix that is not Singular: by its
    Cholesky factor when positive definite, by LU otherwise."""
    if cls.is_positive_definite:
        return solve_spd(cls, rhs)
    return np.linalg.solve(cls.matrix, rhs)


def angle_between(u, v) -> float:
    """Angle in radians between two nonzero vectors, stable near 0 and pi."""
    a = as_vector(u)
    b = as_vector(v)
    na = norm2(a)
    nb = norm2(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for a zero vector")
    a = a / na
    b = b / nb
    # atan2 of the rejection norm against the dot product.
    dot = float(a @ b)
    rej = norm2(a - dot * b)
    return float(np.arctan2(rej, dot))
