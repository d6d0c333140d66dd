"""Scaling-equivalence experiments: optimize f(x) = phi(Bx) and phi itself,
then compare the trajectories after mapping iterates through y = Bx.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .direction import descent_direction
from .line_search import LineSearchSpec
from .numerics import angle_between, as_vector, norm2
from .objective import make_objective
from .optimizer import RunReport, yand_run
from .problems import Problem


class InvarianceReport(NamedTuple):
    scaled: RunReport                   # on phi(B x) from B^-1 y0
    base: RunReport                     # on phi from y0
    per_iterate_deviation: list[float]  # ||B x_k - y_k|| over shared rows


def compose_scaled(base: Problem, B) -> Problem:
    """The problem min f(x) = phi(Bx) with start B^-1 y0, derivatives by
    the chain rule. Raises ValueError when B is not dim x dim, holds infs or
    NaNs, has det(B) <= 0, or when B^-1, B^-1 y0 or B^-1 y* overflows."""
    B = np.asarray(B, dtype=float)
    dim = base.objective.dim
    if B.shape != (dim, dim):
        raise ValueError(f"B must be {dim}x{dim}, got shape {B.shape}")
    if not np.isfinite(B).all():
        raise ValueError("B must not contain infs or NaNs")
    det = float(np.linalg.det(B))
    if det <= 0.0:
        raise ValueError(f"det(B) = {det:g} must be positive: B must be "
                         "invertible and orientation-preserving")
    phi = base.objective
    Binv = np.linalg.inv(B)
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = Binv @ as_vector(base.x0)
        x_star = None if base.x_star is None else Binv @ base.x_star
    if not all(np.isfinite(a).all() for a in (Binv, x0, x_star)
               if a is not None):
        raise ValueError("B must have a finite inverse that maps x0 and "
                         "x_star to finite points")
    BT = B.T
    # B.dot(y) is B @ y by the same BLAS call for a C- or F-contiguous B. The
    # Hessian, an oracle's array of any layout, keeps matmul.
    Bx, BTx = B.dot, BT.dot

    def value(x):
        return phi.value(Bx(x))

    def gradient(x):
        return BTx(phi.gradient(Bx(x)))

    def hessian(x):
        H = phi.hessian(Bx(x))
        # The run reports an overflowed product as NonFiniteHessian. numpy's
        # overflow warning would only repeat that, and where warnings are
        # errors it would escape the run as an exception.
        with np.errstate(over="ignore", invalid="ignore"):
            return BT @ H @ B

    def third(x, u, v, w):
        return phi.third_directional(Bx(x), Bx(u), Bx(v), Bx(w))

    def in_domain(x):
        return phi.in_domain(Bx(x))

    obj = make_objective(dim, value, gradient, hessian, third, in_domain)
    return Problem(f"{base.name}_scaled", obj, x0, x_star, base.f_star,
                   f"{base.notes} (composed with B)")


def run_invariance(base: Problem, B, ls: LineSearchSpec,
                   stop=None) -> InvarianceReport:
    """Run the geometric method on phi(B x) from B^-1 y0 and on phi from
    y0; deviations are ||B x_k - y_k|| over the shared iterate range,
    which holds row 0 at least."""
    B = np.asarray(B, dtype=float)
    scaled = yand_run(compose_scaled(base, B), ls, stop)
    unscaled = yand_run(base, ls, stop)
    n_shared = min(len(scaled.records), len(unscaled.records))
    deviations = [
        norm2(B @ scaled.records[k].x - unscaled.records[k].x)
        for k in range(n_shared)
    ]
    return InvarianceReport(scaled, unscaled, deviations)


def direction_covariance_angle(base: Problem, B, y) -> float:
    """Angle between B d_f(B^-1 y) and d_phi(y): zero when the direction
    field transforms covariantly under the scaling."""
    B = np.asarray(B, dtype=float)
    scaled = compose_scaled(base, B)
    y = as_vector(y, base.objective.dim)
    x = np.linalg.solve(B, y)
    d_f = descent_direction(scaled.objective, x).d
    d_phi = descent_direction(base.objective, y).d
    return angle_between(B @ d_f, d_phi)
