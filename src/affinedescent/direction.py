"""Descent directions built from the level-set geometry at a point.

The frame splits the Hessian into a tangent block B, a cross column c,
and a normal-normal scalar d_nn. The geometric step direction combines
the curvature of the level set with a third-derivative correction; it is
reported with its frame-normal component normalized to -1, together with
the tangential coefficients tau and telemetry (T = ||tau||, cos_theta =
cosine of the angle to the negative unit gradient).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt

import numpy as np

from .errors import DegenerateTangentBlock, SingularHessian, ZeroGradient
from .numerics import (DefinitenessTag, Frame, Matrix, SymmetricClass, Vector,
                       as_vector, build_gradient_frame, classify_symmetric,
                       inf_norm, norm2, solve_spd)
from .objective import Objective

# Relative width of the near-orthogonality band that triggers the
# steepest-descent fallback.
EPS_ORTH = 1e-12
# Floor on the along-normal curvature used for the step scale.
SCALE_FLOOR = 1e-12


@dataclass(frozen=True)
class BlockHessian:
    """Hessian of f at a point, expressed in a gradient-aligned frame."""

    frame: Frame
    B: Matrix        # tangent-tangent block, (dim-1) x (dim-1), symmetric
    c: Vector        # tangent-normal column
    d_nn: float      # normal-normal entry


class PointTag(Enum):
    ELLIPTIC = "Elliptic"
    DEGENERATE = "Degenerate"
    NON_ELLIPTIC = "NonElliptic"


@dataclass(frozen=True)
class PointClass:
    tag: PointTag
    min_eig_B: float


class DirectionCase(Enum):
    AN = "AN"
    FLIPPED_AN = "FlippedAN"
    STEEPEST_FALLBACK = "SteepestFallback"


@dataclass(frozen=True)
class DirectionResult:
    d: Vector              # ambient direction, frame-normal component -1
    case: DirectionCase
    tau: Vector            # tangential coefficients of d in the frame
    T: float               # ||tau||
    cos_theta: float       # cosine of the angle between d and -grad
    point_class: PointClass
    step_scale: float      # multiplier making step_scale*d a unit-step-friendly length


def block_decompose(obj: Objective, x, frame: Frame | None = None) -> BlockHessian:
    """Express the Hessian at x in a gradient-aligned frame.

    A frame may be passed explicitly (its last column must be the unit
    gradient); by default the deterministic Householder frame is built.
    """
    x = as_vector(x)
    if frame is None:
        frame = build_gradient_frame(obj.gradient(x))
    H = np.asarray(obj.hessian(x), dtype=float)
    Hf = frame.basis.T @ H @ frame.basis
    B = 0.5 * (Hf[:-1, :-1] + Hf[:-1, :-1].T)
    c = Hf[:-1, -1].copy()
    d_nn = float(Hf[-1, -1])
    return BlockHessian(frame=frame, B=B, c=c, d_nn=d_nn)


def classify_point(obj: Objective, x, frame: Frame | None = None) -> PointClass:
    """Ellipticity of the level set at x, from the tangent Hessian block."""
    block = block_decompose(obj, x, frame=frame)
    return _classify_block(classify_symmetric(block.B))


def _classify_block(cls_B: SymmetricClass) -> PointClass:
    if cls_B.tag is DefinitenessTag.POSITIVE_DEFINITE:
        tag = PointTag.ELLIPTIC
    elif cls_B.tag is DefinitenessTag.SINGULAR:
        tag = PointTag.DEGENERATE
    else:
        tag = PointTag.NON_ELLIPTIC
    return PointClass(tag=tag, min_eig_B=cls_B.min_eig)


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


def _tangent_solve(cls_B: SymmetricClass, rhs: np.ndarray) -> np.ndarray:
    if cls_B.is_positive_definite:
        return solve_spd(cls_B, rhs)
    try:
        return np.linalg.solve(cls_B.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        # indefinite block with an exactly zero eigenvalue
        raise DegenerateTangentBlock(str(exc)) from exc


def _tau_and_scale(obj: Objective, x: Vector, block: BlockHessian,
                   cls_B: SymmetricClass) -> tuple[Vector, float, float]:
    """Tangential coefficients tau, orientation sign, and step scale."""
    frame = block.frame
    m = block.B.shape[0]
    gnorm = frame.grad_norm
    M3 = _third_tensor_tangent(obj, x, frame)
    Binv_M = _tangent_solve(cls_B, M3.reshape(m, m * m)).reshape(m, m, m)
    # s_i = sum_pq (B^-1)_pq D3[t_p, t_q, t_i] = trace of the solved slab.
    s = np.einsum("ppi->i", Binv_M)
    rhs = block.c - (gnorm / (m + 2.0)) * s
    tau = _tangent_solve(cls_B, rhs)
    # Orientation of the underlying geometric normal: for an odd number of
    # tangent directions it flips with sign(det B); for an even number the
    # real root does not exist for negative det and the sign is taken +1.
    if m % 2 == 1:
        sign, _ = np.linalg.slogdet(cls_B.matrix)
        omega = 1.0 if sign >= 0.0 else -1.0
    else:
        omega = 1.0
    Binv_c = _tangent_solve(cls_B, block.c)
    schur = block.d_nn - float(block.c @ Binv_c)
    floor = SCALE_FLOOR * max(1.0, abs(block.d_nn), inf_norm(block.B))
    step_scale = gnorm / schur if schur > floor else 1.0
    return tau, omega, step_scale


def affine_normal_direction(obj: Objective, x,
                            frame: Frame | None = None) -> tuple[Vector, Vector]:
    """Tangential coefficients tau and the ambient direction d with
    frame-normal component -1.

    Raises ZeroGradient at stationary points and DegenerateTangentBlock
    when the tangent Hessian block is numerically singular.
    """
    x = as_vector(x)
    block = block_decompose(obj, x, frame=frame)
    cls_B = classify_symmetric(block.B)
    if cls_B.tag is DefinitenessTag.SINGULAR:
        raise DegenerateTangentBlock(
            f"tangent block min |eig| = {abs(cls_B.min_eig):.3e}")
    tau, _, _ = _tau_and_scale(obj, x, block, cls_B)
    d = block.frame.tangent @ tau - block.frame.normal
    return tau, d


def descent_direction(obj: Objective, x,
                      frame: Frame | None = None) -> DirectionResult:
    """Geometric descent direction with case logic.

    Case AN: the oriented geometric direction already points downhill.
    Case FlippedAN: it points uphill (orientation sign flips with the
    tangent-block determinant) and is negated. SteepestFallback: the
    tangent block is numerically singular, or the direction is orthogonal
    to the gradient within EPS_ORTH; the unit negative gradient is used.
    The returned d always has frame-normal component -1.
    """
    x = as_vector(x)
    g = obj.gradient(x)
    block = block_decompose(obj, x, frame=frame)
    frame_ = block.frame
    gnorm = frame_.grad_norm
    cls_B = classify_symmetric(block.B)
    pc = _classify_block(cls_B)
    m = block.B.shape[0]

    if cls_B.tag is DefinitenessTag.SINGULAR:
        return _fallback_result(frame_, pc, m)

    try:
        tau, omega, step_scale = _tau_and_scale(obj, x, block, cls_B)
    except DegenerateTangentBlock:
        return _fallback_result(frame_, pc, m)
    d = frame_.tangent @ tau - frame_.normal
    d_norm = norm2(d)
    inner_raw = omega * float(g @ d)
    band = EPS_ORTH * gnorm * d_norm
    if inner_raw < -band:
        case = DirectionCase.AN
    elif inner_raw > band:
        case = DirectionCase.FLIPPED_AN
    else:
        return _fallback_result(frame_, pc, m)
    T = norm2(tau)
    # d = tangent @ tau - normal, so ||d||^2 = 1 + T^2; -d.normal / ||d||
    # would carry an error of about eps * T, large when d is nearly tangent.
    cos_theta = 1.0 / sqrt(1.0 + T * T)
    return DirectionResult(d=d, case=case, tau=tau, T=T, cos_theta=cos_theta,
                           point_class=pc, step_scale=step_scale)


def _fallback_result(frame: Frame, pc: PointClass, m: int) -> DirectionResult:
    return DirectionResult(
        d=-frame.normal, case=DirectionCase.STEEPEST_FALLBACK,
        tau=np.zeros(m), T=0.0, cos_theta=1.0, point_class=pc,
        step_scale=1.0)


def newton_direction(obj: Objective, x, regularize: bool = False) -> Vector:
    """Newton step -H^-1 grad; optionally with an SPD-restoring shift.

    Without regularization a singular Hessian raises SingularHessian; an
    indefinite invertible one is solved as-is.
    """
    x = as_vector(x)
    g = obj.gradient(x)
    H = np.asarray(obj.hessian(x), dtype=float)
    cls = classify_symmetric(H)
    if cls.is_positive_definite:
        return -solve_spd(cls, g)
    if regularize:
        shift = max(0.0, -cls.min_eig) + 1e-8 * max(1.0, inf_norm(H))
        shifted = classify_symmetric(cls.matrix + shift * np.eye(obj.dim))
        return -solve_spd(shifted, g)
    if cls.tag is DefinitenessTag.SINGULAR:
        raise SingularHessian(f"min |eig| = {abs(cls.min_eig):.3e}")
    try:
        return -np.linalg.solve(cls.matrix, g)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian(str(exc)) from exc
