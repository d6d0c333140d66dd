"""Scaling-equivalence experiments: optimize f(x) = phi(Bx) and phi itself,
then compare the trajectories after mapping iterates through y = Bx.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direction import descent_direction
from .errors import SingularB
from .line_search import LineSearchSpec
from .numerics import angle_between, as_vector
from .objective import make_objective
from .optimizer import StoppingSpec, yand_run
from .problems import Problem


@dataclass(frozen=True)
class InvarianceReport:
    gamma: float                        # condition number of the scaling B
    per_iterate_deviation: list[float]  # ||y_k - y_k_base|| over shared rows
    max_deviation: float
    iters_scaled: int
    iters_base: int
    non_an_cases: int                   # steps where either run left case AN


def compose_scaled(base: Problem, B) -> Problem:
    """The problem min f(x) = phi(Bx) with start B^-1 y0, derivatives by
    the chain rule. Raises ValueError when B holds infs or NaNs and
    SingularB unless det(B) > 0."""
    B = np.asarray(B, dtype=float)
    if not np.isfinite(B).all():
        raise ValueError("B must not contain infs or NaNs")
    det = float(np.linalg.det(B))
    if det <= 0.0:
        raise SingularB(f"det(B) = {det:g} must be positive")
    phi = base.objective
    Binv = np.linalg.inv(B)
    BT = B.T
    # B.dot(y) is B @ y by the same BLAS call for a C- or F-contiguous B. The
    # Hessian, an oracle's array of any layout, keeps matmul.
    Bx, BTx = B.dot, BT.dot

    def value(x):
        return phi.value(Bx(x))

    def gradient(x):
        return BTx(phi.gradient(Bx(x)))

    def hessian(x):
        return BT @ phi.hessian(Bx(x)) @ B

    def third(x, u, v, w):
        return phi.third_directional(Bx(x), Bx(u), Bx(v), Bx(w))

    def in_domain(x):
        return phi.in_domain(Bx(x))

    obj = make_objective(base.objective.dim, value, gradient, hessian, third,
                         in_domain)
    x_star = None if base.x_star is None else Binv @ base.x_star
    return Problem(name=f"{base.name}_scaled", objective=obj,
                   x0=Binv @ as_vector(base.x0), x_star=x_star,
                   f_star=base.f_star, notes=f"{base.notes} (composed with B)")


def run_invariance(base: Problem, B, ls: LineSearchSpec,
                   stop=None) -> InvarianceReport:
    """Run the geometric method on phi(B x) from B^-1 y0 and on phi from
    y0; deviations are ||B x_k - y_k|| over the shared iterate range."""
    if stop is None:
        stop = StoppingSpec()
    B = np.asarray(B, dtype=float)
    scaled = compose_scaled(base, B)
    rep_scaled = yand_run(scaled, ls, stop)
    rep_base = yand_run(base, ls, stop)
    n_shared = min(len(rep_scaled.records), len(rep_base.records))
    deviations = [
        float(np.linalg.norm(B @ rep_scaled.records[k].x - rep_base.records[k].x))
        for k in range(n_shared)
    ]
    non_an = sum(r.case != "AN"
                 for rep in (rep_scaled, rep_base)
                 for r in rep.records[1:])
    return InvarianceReport(
        gamma=float(np.linalg.cond(B, 2)),
        per_iterate_deviation=deviations,
        max_deviation=max(deviations) if deviations else 0.0,
        iters_scaled=rep_scaled.iters,
        iters_base=rep_base.iters,
        non_an_cases=int(non_an),
    )


def direction_covariance_angle(base: Problem, B, y) -> float:
    """Angle between B d_f(B^-1 y) and d_phi(y): zero when the direction
    field transforms covariantly under the scaling."""
    B = np.asarray(B, dtype=float)
    scaled = compose_scaled(base, B)
    y = as_vector(y)
    x = np.linalg.solve(B, y)
    d_f = descent_direction(scaled.objective, x).d
    d_phi = descent_direction(base.objective, y).d
    return angle_between(B @ d_f, d_phi)
