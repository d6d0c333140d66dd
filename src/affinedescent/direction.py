"""Descent directions built from the level-set geometry at a point.

The frame splits the Hessian into a tangent block B, a cross column c,
and a normal-normal scalar d_nn. The geometric step direction combines
the curvature of the level set with a third-derivative correction; it is
reported with its frame-normal component normalized to -1, together with
the tangential coefficients tau and telemetry (T = ||tau||, cos_theta =
cosine of the angle to the negative unit gradient).
"""
from __future__ import annotations

from enum import Enum
from math import isfinite, sqrt
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteHessian, NonFiniteThird, SingularHessian
from .numerics import (NON_FINITE_MATRIX, DefinitenessTag, Frame, Matrix,
                       SymmetricClass, Vector, as_vector, build_gradient_frame,
                       classify_symmetric, definiteness_tag, norm2,
                       solve_symmetric, unit_gradient)
from .objective import Objective

# d = tangent @ tau - n_hat has ||d||^2 = 1 + T^2 for T = ||tau||: from
# T = T_TANGENT on, d is numerically tangent and the direction falls back.
T_TANGENT = 1e12
# Floor on the along-normal curvature used for the step scale.
SCALE_FLOOR = 1e-12
_NON_FINITE_THIRD = "third derivative has infs or NaNs"
_NON_FINITE_CORRECTION = "third-derivative correction has infs or NaNs"


class BlockHessian(NamedTuple):
    """Hessian of f at a point, expressed in a gradient-aligned frame."""

    frame: Frame
    B: Matrix        # tangent-tangent block, (dim-1) x (dim-1), as computed;
                     # classify_symmetric takes its symmetric part
    c: Vector        # tangent-normal column
    d_nn: float      # normal-normal entry


class DirectionCase(Enum):
    AN = "AN"
    FLIPPED_AN = "FlippedAN"
    STEEPEST_FALLBACK = "SteepestFallback"


class DirectionResult(NamedTuple):
    d: Vector              # ambient direction, frame-normal component -1
    case: DirectionCase
    tau: Vector            # tangential coefficients of d in the frame
    point_class: SymmetricClass   # classification of the tangent block B
    step_scale: float      # multiplier making step_scale*d a unit-step-friendly length

    @property
    def T(self) -> float:
        return norm2(self.tau)

    @property
    def cos_theta(self) -> float:
        """Cosine of the angle between d and -grad. d = tangent @ tau -
        normal, so ||d||^2 = 1 + T^2; -d.normal / ||d|| would carry an
        error of about eps * T, large when d is nearly tangent."""
        return 1.0 / sqrt(1.0 + self.T * self.T)


def _hessian(obj: Objective, x: Vector) -> Matrix:
    H = np.asarray(obj.hessian(x), dtype=float)
    # checked here: classify_symmetric's ValueError reads as NonFiniteHessian
    if H.shape != (obj.dim, obj.dim):
        raise ValueError(f"Hessian oracle returned shape {H.shape}")
    if not np.isfinite(H).all():
        raise NonFiniteHessian("Hessian has infs or NaNs")
    return H


def _classify_hessian(M) -> SymmetricClass:
    """classify_symmetric of the symmetric part of M, raising
    NonFiniteHessian where that part holds infs or NaNs."""
    try:
        return classify_symmetric(M)
    except ValueError as exc:
        raise NonFiniteHessian(str(exc)) from None


def block_decompose(obj: Objective, x, frame: Frame | None = None) -> BlockHessian:
    """Express the Hessian at x in a gradient-aligned frame.

    A frame may be passed explicitly (its last column must be the unit
    gradient); by default the deterministic Householder frame is built.
    Raises NonFiniteHessian when the Hessian holds infs or NaNs.
    """
    x = as_vector(x, obj.dim)
    if frame is None:
        frame = build_gradient_frame(obj.gradient(x))
    H = _hessian(obj, x)
    Hf = frame.basis.T @ H @ frame.basis
    return BlockHessian(frame=frame, B=Hf[:-1, :-1], c=Hf[:-1, -1].copy(),
                        d_nn=float(Hf[-1, -1]))


def classify_point(obj: Objective, x, frame: Frame | None = None) -> SymmetricClass:
    """Classification of the tangent Hessian block at x. The level set is
    elliptic there exactly when the block is positive definite."""
    return _classify_hessian(block_decompose(obj, x, frame=frame).B)


def _third_tensor_tangent(obj: Objective, x: Vector, frame: Frame) -> np.ndarray:
    """D3f(x)[t_p, t_q, t_i] over the tangent directions, using symmetry
    in the first pair: m*m(m+1)/2 oracle calls, ordered by p, q >= p, i."""
    rows = np.ascontiguousarray(frame.tangent.T)   # rows[i] = t_i
    m = rows.shape[0]
    third = obj.third_directional
    M = np.empty((m, m, m))
    for p in range(m):
        t_p = rows[p]
        for q in range(p, m):
            t_q = rows[q]
            M[p, q] = [third(x, t_p, t_q, t_i) for t_i in rows]
            M[q, p] = M[p, q]
    return M


def _tau(obj: Objective, x: Vector, block: BlockHessian,
         cls_B: SymmetricClass) -> Vector:
    """Tangential coefficients of the geometric direction; B nonsingular.
    Raises NonFiniteThird when a third derivative is not finite, or when
    the right-hand side it corrects overflows."""
    frame = block.frame
    m = block.B.shape[0]
    M3 = _third_tensor_tangent(obj, x, frame)
    if not np.isfinite(M3).all():
        raise NonFiniteThird(_NON_FINITE_THIRD)
    Binv_M = solve_symmetric(cls_B, M3.reshape(m, m * m)).reshape(m, m, m)
    # s_i = sum_pq (B^-1)_pq D3[t_p, t_q, t_i] = trace of the solved slab.
    s = np.einsum("ppi->i", Binv_M)
    rhs = block.c - (frame.grad_norm / (m + 2.0)) * s
    if not np.isfinite(rhs).all():
        raise NonFiniteThird(_NON_FINITE_CORRECTION)
    return solve_symmetric(cls_B, rhs)


def affine_normal_direction(obj: Objective, x) -> DirectionResult:
    """descent_direction through the matrix path at every n >= 2, in the
    frame of one gradient call at x: at n = 2 it takes no planar closed
    form. The same result, errors and oracle calls as descent_direction
    at n >= 3 without a gradient."""
    return _matrix_direction(obj, as_vector(x, obj.dim), None)


def descent_direction(obj: Objective, x, g=None) -> DirectionResult:
    """Geometric descent direction with case logic.

    The returned d is tangent @ tau - n_hat, frame-normal component -1, so
    g.d = -||g||. The case is the orientation sign omega: AN iff omega > 0;
    otherwise FlippedAN, where the geometric normal omega * d pointed
    uphill and was flipped. SteepestFallback: the tangent block is
    numerically singular, or d is numerically tangent (T = ||tau|| not
    below T_TANGENT); the unit negative gradient is used.

    g is the gradient of obj at x, for a caller that already holds it, as
    yand_run's loop does. It is not checked, so it must be that gradient;
    None evaluates it here. n >= 3 takes the matrix path, which builds its
    frame from that gradient: it makes no gradient call when g is given
    and one otherwise. A 2-D objective takes a scalar closed form of the
    1x1 tangent block, with the same errors and result bits as the matrix
    path. It does not read g and makes two gradient calls at x (see
    _planar_direction). Below dimension 2 it raises ValueError.
    """
    x = as_vector(x, obj.dim)
    if obj.dim == 2:
        return _planar_direction(obj, x)
    return _matrix_direction(obj, x,
                             None if g is None else build_gradient_frame(g))


def _matrix_direction(obj: Objective, x: Vector,
                      frame: Frame | None) -> DirectionResult:
    """descent_direction for any n >= 2 through the tangent-block
    classification and solves, in the given frame (None: the Householder
    frame of the gradient at x, with one gradient call)."""
    block = block_decompose(obj, x, frame=frame)
    cls_B = _classify_hessian(block.B)
    if cls_B.tag is DefinitenessTag.SINGULAR:
        return _fallback_result(block.frame.normal, cls_B)
    tau = _tau(obj, x, block, cls_B)
    d = block.frame.tangent @ tau - block.frame.normal
    return _oriented_result(
        d, tau, block.frame.normal, block.frame.grad_norm, cls_B,
        lambda: block.d_nn - float(block.c @ solve_symmetric(cls_B, block.c)),
        block.d_nn)


def _oriented_result(d: Vector, tau: Vector, n_hat: Vector, gnorm: float,
                     cls_B: SymmetricClass, schur,
                     d_nn: float) -> DirectionResult:
    """The paper's descent characterization: d = tangent @ tau - n_hat
    descends, with g.d = -||g||, unless it is numerically tangent (T =
    ||tau|| not below T_TANGENT, NaN included) and falls back. The case is the
    orientation sign omega: sign(det B) for an odd number of tangent
    directions, +1 for an even number, where the real root does not exist
    for negative det. Then the step scale from schur(), the Schur
    complement d_nn - c.B^-1 c, which a fallback never evaluates."""
    if not norm2(tau) < T_TANGENT:
        return _fallback_result(n_hat, cls_B)
    omega = cls_B.det_sign if tau.size % 2 else 1.0
    case = DirectionCase.AN if omega > 0.0 else DirectionCase.FLIPPED_AN
    s = schur()
    floor = SCALE_FLOOR * max(cls_B.scale, abs(d_nn))
    step_scale = gnorm / s if s > floor else 1.0
    return DirectionResult(d=d, case=case, tau=tau, point_class=cls_B,
                           step_scale=step_scale)


def _fallback_result(normal: Vector, cls_B: SymmetricClass) -> DirectionResult:
    return DirectionResult(
        d=-normal, case=DirectionCase.STEEPEST_FALLBACK,
        tau=np.zeros(cls_B.eigs.size), point_class=cls_B, step_scale=1.0)


def _planar_basis(n_hat: Vector) -> Matrix:
    """build_gradient_frame's basis for n = 2 from the unit gradient, in
    scalars: the tangent column of its Householder reflection, then n_hat."""
    n0, n1 = n_hat.tolist()
    s = -1.0 if n1 >= 0.0 else 1.0
    u = np.array([n0, n1 - s])
    k = 2.0 / float(u.dot(u))   # a numpy dot, as in build_gradient_frame
    u0, u1 = u.tolist()
    return np.array([[1.0 - k * (u0 * u0), n0], [0.0 - k * (u1 * u0), n1]])


def _planar_direction(obj: Objective, x: Vector) -> DirectionResult:
    """descent_direction for n = 2, in scalars.

    The tangent block is 1x1, so its eigenvalue is b, its Cholesky factor
    w = 1/sqrt(b) and a solve r/b or w*(w*r): one IEEE operation each, as
    LAPACK computes them on a 1x1 matrix. Sums of several products stay
    numpy calls, whose BLAS kernels may fuse multiply-adds. The errors and
    the result bits are those of the matrix path. So are the oracle calls
    of the matrix path called without a gradient, but for a first gradient
    call at x whose value is not read: under yand_run it makes two
    gradient calls per direction where the matrix path makes none.
    """
    # Read by nothing: catalog2d's gradient count recorded in
    # perfbench/golden.json includes this call until it is re-recorded.
    obj.gradient(x)
    n_hat, gnorm = unit_gradient(obj.gradient(x))
    basis = _planar_basis(n_hat)
    (t0, n0), (t1, n1) = basis.tolist()
    # matmul, as in block_decompose: dot would round a Hessian that is
    # neither C- nor F-contiguous differently.
    (h00, c), (_, d_nn) = (basis.T @ _hessian(obj, x) @ basis).tolist()
    # classify_symmetric's symmetrization of the 1x1 block: h00 unless
    # 2 * h00 overflows.
    b = 0.5 * (h00 + h00)
    if not isfinite(b):
        raise NonFiniteHessian(NON_FINITE_MATRIX)
    scale = max(1.0, abs(b))
    tag = definiteness_tag(b, abs(b), scale)
    w = 1.0 / sqrt(b) if tag is DefinitenessTag.POSITIVE_DEFINITE else None
    cls_B = SymmetricClass(tag=tag, eigs=np.array([b]),
                           matrix=np.array([[b]]), scale=scale,
                           factor=None if w is None else np.array([[w]]))
    if tag is DefinitenessTag.SINGULAR:
        return _fallback_result(n_hat, cls_B)

    def solve(r: float) -> float:
        return r / b if w is None else w * (w * r)

    t = np.array([t0, t1])
    third = float(obj.third_directional(x, t, t, t))
    if not isfinite(third):
        raise NonFiniteThird(_NON_FINITE_THIRD)
    # The matrix path's trace and matrix-vector product sum from +0.
    s3 = 0.0 + solve(third)
    rhs = c - (gnorm / 3.0) * s3
    if not isfinite(rhs):
        raise NonFiniteThird(_NON_FINITE_CORRECTION)
    tau = solve(rhs)
    d = np.array([(0.0 + t0 * tau) - n0, (0.0 + t1 * tau) - n1])
    return _oriented_result(d, np.array([tau]), n_hat, gnorm, cls_B,
                            lambda: d_nn - c * solve(c), d_nn)


def newton_direction(obj: Objective, x, regularize: bool = False) -> Vector:
    """Newton step -H^-1 grad with H the symmetric part of the Hessian
    oracle's matrix; optionally with an SPD-restoring shift.

    Without regularization a singular H raises SingularHessian; an
    indefinite invertible one is solved as-is. A Hessian holding infs or
    NaNs, or whose symmetrization overflows, raises NonFiniteHessian.
    """
    x = as_vector(x, obj.dim)
    g = obj.gradient(x)
    cls = _classify_hessian(_hessian(obj, x))
    if regularize and not cls.is_positive_definite:
        shift = max(0.0, -cls.min_eig) + 1e-8 * cls.scale
        cls = _classify_hessian(cls.matrix + shift * np.eye(obj.dim))
    if cls.tag is DefinitenessTag.SINGULAR:
        raise SingularHessian(f"min |eig| = {np.abs(cls.eigs).min():.3e}")
    return -solve_symmetric(cls, g)
