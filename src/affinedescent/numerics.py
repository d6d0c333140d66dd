"""Dense linear-algebra kernels: gradient-aligned frames, symmetric
classification with a reusable Cholesky factor, and small utilities.

Everything here is deterministic and works on float64 numpy arrays. The
Cholesky kernels call LAPACK's potrf/potrs directly, the same routines and
arguments scipy.linalg.cho_factor/cho_solve use, without their per-call
argument handling; results are bit-identical to those wrappers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NotFactorized, NotSymmetric, ZeroGradient

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Below this the gradient is treated as exactly zero.
ZERO_GRAD_FLOOR = 1e-300
# Relative tolerances, both scaled by max(1, ||M||_inf).
SYMMETRY_TOL = 1e-12
DEGENERACY_TOL = 1e-10


def as_vector(x) -> Vector:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def norm2(v) -> float:
    """Euclidean norm of a 1-d float vector.

    Performs the same operations as np.linalg.norm(v), hence returns the
    same bits, without its dispatch overhead.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def inf_norm(M) -> float:
    return float(np.max(np.abs(M))) if np.asarray(M).size else 0.0


@dataclass(frozen=True)
class Frame:
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
    gradient (s chosen so the reflector is well conditioned), then flips
    the last input axis by s so the final column is the unit gradient
    itself, not its negative. Deterministic in the input bits.
    """
    g = as_vector(grad)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient has non-finite entries")
    gnorm = norm2(g)
    if gnorm <= ZERO_GRAD_FLOOR:
        raise ZeroGradient(f"gradient norm {gnorm:g} below {ZERO_GRAD_FLOOR:g}")
    n_hat = g / gnorm
    dim = g.size
    if dim < 2:
        raise ValueError("frame construction needs dimension >= 2")
    # Reflector u = n_hat - s*e_last with s opposing n_hat[-1]: no cancellation.
    s = -1.0 if n_hat[-1] >= 0.0 else 1.0
    u = n_hat.copy()
    u[-1] -= s
    basis = np.eye(dim) - (2.0 / float(u @ u)) * np.outer(u, u)
    basis[:, -1] *= s
    # The last column equals n_hat analytically; store it exactly.
    basis[:, -1] = n_hat
    return Frame(basis=basis, grad_norm=gnorm)


class DefinitenessTag(Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    SINGULAR = "Singular"
    OTHER_INDEFINITE = "OtherIndefinite"


@dataclass(frozen=True)
class SymmetricClass:
    """Classification of a symmetric matrix with its spectrum endpoints
    and, when positive definite, a Cholesky factor reusable by solve_spd.

    `factor` is the raw LAPACK potrf output for the lower triangle: L sits
    on and below the diagonal, and the strict upper triangle still holds
    the matrix entries (potrf's clean=0). Only solve_spd should read it.
    """

    tag: DefinitenessTag
    min_eig: float
    max_eig: float
    matrix: Matrix
    factor: Matrix | None = None

    @property
    def is_positive_definite(self) -> bool:
        return self.tag is DefinitenessTag.POSITIVE_DEFINITE


def classify_symmetric(M) -> SymmetricClass:
    """Classify a symmetric matrix as positive definite, numerically
    singular, or otherwise indefinite.

    Symmetry is required up to 1e-12 * max(1, ||M||_inf); eigenvalues
    within 1e-10 * max(1, ||M||_inf) of zero count as singular.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, inf_norm(A))
    if inf_norm(A - A.T) > SYMMETRY_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    S = 0.5 * (A + A.T)
    eigs = np.linalg.eigvalsh(S)
    min_eig = float(eigs[0])
    max_eig = float(eigs[-1])
    thresh = DEGENERACY_TOL * scale
    if min_eig > thresh:
        tag = DefinitenessTag.POSITIVE_DEFINITE
        factor, info = dpotrf(S, lower=1, clean=0)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"potrf failed (info={info}): leading minor not positive definite")
    elif abs(min_eig) <= thresh:
        tag = DefinitenessTag.SINGULAR
        factor = None
    else:
        tag = DefinitenessTag.OTHER_INDEFINITE
        factor = None
    return SymmetricClass(tag=tag, min_eig=min_eig, max_eig=max_eig,
                          matrix=S, factor=factor)


def solve_spd(cls: SymmetricClass, rhs) -> Vector:
    """Solve M x = rhs (a vector or a matrix of columns) using the Cholesky
    factor stored by classify_symmetric. rhs is left unmodified.

    Raises NotFactorized for non-SPD input and ValueError when rhs holds
    infs or NaNs.
    """
    if cls.factor is None:
        raise NotFactorized(f"no factor available (tag={cls.tag.value})")
    b = np.asarray(rhs, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    x, info = dpotrs(cls.factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


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
