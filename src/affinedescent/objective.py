"""Objective container and finite-difference derivative checks.

An Objective supplies analytic value/gradient/Hessian plus a directional
third derivative D3f(x)[u,v,w]. Values outside the domain are the +inf
sentinel, which line searches treat as automatic rejection.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Callable

import numpy as np

from .errors import DomainViolation
from .numerics import Vector, as_vector

ValueFn = Callable[[Vector], float]
GradFn = Callable[[Vector], Vector]
HessFn = Callable[[Vector], np.ndarray]
ThirdFn = Callable[[Vector, Vector, Vector, Vector], float]
DomainFn = Callable[[Vector], bool]


def _whole_space(x: Vector) -> bool:
    return True


@dataclass(frozen=True)
class Objective:
    dim: int
    value: ValueFn
    gradient: GradFn
    hessian: HessFn
    third_directional: ThirdFn
    in_domain: DomainFn = field(default=_whole_space)


def make_objective(dim: int, value: ValueFn, gradient: GradFn, hessian: HessFn,
                   third_directional: ThirdFn,
                   in_domain: DomainFn | None = None) -> Objective:
    """Build an Objective whose value returns +inf outside the domain.

    Derivative callables are left unwrapped; algorithms only evaluate them
    at accepted (in-domain) points.
    """
    if in_domain is None:
        return Objective(dim, value, gradient, hessian, third_directional)

    def guarded(x: Vector) -> float:
        if not in_domain(x):
            return float("inf")
        return value(x)

    return Objective(dim, guarded, gradient, hessian, third_directional,
                     in_domain)


# Steps of the finite-difference stencils.
GRAD_H = 1e-5
HESS_H = 1e-4
THIRD_H = 1e-3


def _stencil_value(obj: Objective, x: Vector) -> float:
    f = obj.value(x)
    if not isfinite(f):
        raise DomainViolation(f"stencil point {x} has non-finite value {f}")
    return f


def fd_gradient(obj: Objective, x) -> Vector:
    """Central-difference gradient with step GRAD_H. Raises DomainViolation
    when a stencil point falls outside the domain."""
    h = GRAD_H
    x = as_vector(x)
    E = h * np.eye(obj.dim)   # row i is the offset h e_i
    plus = x + E
    minus = x - E
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        g[i] = (_stencil_value(obj, plus[i])
                - _stencil_value(obj, minus[i])) / (2.0 * h)
    return g


def fd_hessian(obj: Objective, x) -> np.ndarray:
    """Central-difference Hessian with step HESS_H (symmetric by
    construction)."""
    h = HESS_H
    x = as_vector(x)
    n = obj.dim
    E = h * np.eye(n)
    plus = x + E
    minus = x - E
    H = np.empty((n, n))
    f0 = _stencil_value(obj, x)
    for i in range(n):
        H[i, i] = (_stencil_value(obj, plus[i]) - 2.0 * f0
                   + _stencil_value(obj, minus[i])) / (h * h)
        rest = E[i + 1:]
        # (x +- h e_i) +- h e_j for all j > i, evaluated ++, +-, -+, --
        corners = zip(plus[i] + rest, plus[i] - rest,
                      minus[i] + rest, minus[i] - rest)
        for j, (pp, pm, mp, mm) in enumerate(corners, start=i + 1):
            mixed = (_stencil_value(obj, pp) - _stencil_value(obj, pm)
                     - _stencil_value(obj, mp)
                     + _stencil_value(obj, mm)) / (4.0 * h * h)
            H[i, j] = mixed
            H[j, i] = mixed
    return H


def _fd_third_rows(obj: Objective, x: Vector, triples: np.ndarray,
                   h: float) -> np.ndarray:
    """Entry k, for triples[k] = (u, v, w):
    (v' H(x + h u) w - v' H(x - h u) w) / (2 h).

    Every stencil point x +- h u is built in one broadcast; the Hessian is
    then evaluated at each pair, triple by triple. The contraction sums
    from +0 as matmul does: dot multiplies 1-element operands as scalars,
    which would give -0 for a zero product in one dimension."""
    step = h * triples[:, 0]
    plus = x + step
    minus = x - step
    out = np.empty(len(triples))
    for k, (xp, xm, (_, v, w)) in enumerate(zip(plus, minus, triples)):
        if not (obj.in_domain(xp) and obj.in_domain(xm)):
            raise DomainViolation("Hessian stencil left the domain")
        hp = obj.hessian(xp)
        hm = obj.hessian(xm)
        if not (_all_finite(hp) and _all_finite(hm)):
            raise DomainViolation("Hessian stencil produced non-finite entries")
        out[k] = (0.0 + float(v.dot(hp - hm).dot(w))) / (2.0 * h)
    return out


def _all_finite(a) -> bool:
    """np.isfinite(a).all() without the dispatch cost of a reduction.

    Both Hessians are checked before their difference is taken: inf - inf
    would warn before the DomainViolation is raised."""
    finite = np.isfinite(a)
    return np.count_nonzero(finite) == finite.size


def fd_third_directional(obj: Objective, x, u, v, w) -> float:
    """Central difference of the analytic Hessian quadratic form along u:
    (v' H(x + h u) w - v' H(x - h u) w) / (2 h) with h = THIRD_H."""
    triple = np.stack([as_vector(a) for a in (u, v, w)])
    return float(_fd_third_rows(obj, as_vector(x), triple[None], THIRD_H)[0])


@dataclass(frozen=True)
class DerivativeReport:
    grad_err: float
    hess_err: float
    third_err: float
    grad_ok: bool
    hess_ok: bool
    third_ok: bool

    @property
    def ok(self) -> bool:
        return self.grad_ok and self.hess_ok and self.third_ok


GRAD_TOL = 1e-7
HESS_TOL = 1e-5
THIRD_TOL = 1e-3


def _max_error(abs_err, scale) -> float:
    """Largest abs_err / max(1, scale). A non-finite result, as from a NaN
    or inf analytic derivative, counts as inf so that the check fails."""
    err = float(np.max(abs_err / np.maximum(1.0, scale), initial=0.0))
    return err if isfinite(err) else inf


def verify_derivatives(obj: Objective, points, rng=None,
                       n_triples: int = 10) -> DerivativeReport:
    """Compare analytic derivatives against finite differences at the
    given points; the third derivative is probed along n_triples random
    unit direction triples per point, drawn from rng in one
    (n_triples, 3, dim) block per point.

    Errors are relative to max(1, scale of the analytic quantity): the
    largest entry for the gradient and the Hessian, each value for the
    third derivative. A non-finite error, as from a NaN or inf analytic
    derivative, is reported as inf and fails its check.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    grad_err = 0.0
    hess_err = 0.0
    third_err = 0.0
    for p in points:
        p = as_vector(p)
        ga = obj.gradient(p)
        grad_err = max(grad_err, _max_error(np.abs(ga - fd_gradient(obj, p)),
                                            np.max(np.abs(ga))))
        Ha = obj.hessian(p)
        hess_err = max(hess_err, _max_error(np.abs(Ha - fd_hessian(obj, p)),
                                            np.max(np.abs(Ha))))
        dirs = rng.standard_normal((n_triples, 3, obj.dim))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        ta = np.array([obj.third_directional(p, u, v, w) for u, v, w in dirs])
        tf = _fd_third_rows(obj, p, dirs, THIRD_H)
        third_err = max(third_err, _max_error(np.abs(ta - tf), np.abs(ta)))
    return DerivativeReport(
        grad_err=grad_err, hess_err=hess_err, third_err=third_err,
        grad_ok=grad_err <= GRAD_TOL,
        hess_ok=hess_err <= HESS_TOL,
        third_ok=third_err <= THIRD_TOL,
    )
