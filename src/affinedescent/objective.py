"""Objective container and finite-difference derivative checks.

An Objective supplies analytic value/gradient/Hessian plus a directional
third derivative D3f(x)[u,v,w]. Values outside the domain are the +inf
sentinel, which line searches treat as automatic rejection.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Callable, NamedTuple

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
    """Analytic oracles of a smooth function on R^dim and its domain test."""

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
    at accepted (in-domain) points. No oracle checks the length of x: the
    package's entry points and Problem check it once, through
    as_vector(x, dim), where a wrapper around each oracle would cost every
    evaluation.
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
    x = as_vector(x, obj.dim)
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
    x = as_vector(x, obj.dim)
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
        hp = np.asarray(obj.hessian(xp), dtype=float)
        hm = np.asarray(obj.hessian(xm), dtype=float)
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


GRAD_TOL = 1e-7
HESS_TOL = 1e-5
THIRD_TOL = 1e-3


class DerivativeReport(NamedTuple):
    grad_err: float
    hess_err: float
    third_err: float

    @property
    def ok(self) -> bool:
        """Every error within its tolerance (an inf error fails)."""
        return (self.grad_err <= GRAD_TOL and self.hess_err <= HESS_TOL
                and self.third_err <= THIRD_TOL)


def _max_error(analytic: np.ndarray, fd: np.ndarray, scale) -> float:
    """Largest |analytic - fd| / max(1, scale) over all entries, 0 when
    there are none. A non-finite result, as from a NaN or inf analytic
    derivative, counts as inf so that the check fails."""
    err = float(np.max(np.abs(analytic - fd) / np.maximum(1.0, scale),
                       initial=0.0))
    return err if isfinite(err) else inf


def verify_derivatives(obj: Objective, points, rng=None,
                       n_triples: int = 10) -> DerivativeReport:
    """Compare analytic derivatives against finite differences at the
    given points; the third derivative is probed along n_triples random
    unit direction triples per point. All of them are drawn from rng
    before the first oracle call, in one (points, n_triples, 3, dim)
    block: the same stream, and the same final rng state, as one
    (n_triples, 3, dim) block per point. So when a point's check raises,
    as DomainViolation from a stencil that leaves the domain, rng has
    still advanced past every point's triples.

    Errors are relative to max(1, scale of the analytic quantity): the
    largest entry at the point for the gradient and the Hessian, each
    value for the third derivative. Each is reduced once over all points,
    which gives the bits of the largest per-point error. A non-finite
    error, as from a NaN or inf analytic derivative, is reported as inf
    and fails its check.
    """
    if rng is None:
        rng = np.random.default_rng(42)
    points = list(points)
    P, n = len(points), obj.dim
    dirs = rng.standard_normal((P, n_triples, 3, n))
    dirs /= np.linalg.norm(dirs, axis=3, keepdims=True)
    ga, gf, Ha, Hf, ta, tf = [], [], [], [], [], []
    for p, triples in zip(points, dirs):
        p = as_vector(p, n)
        ga.append(obj.gradient(p))
        gf.append(fd_gradient(obj, p))
        Ha.append(obj.hessian(p))
        Hf.append(fd_hessian(obj, p))
        ta.append([obj.third_directional(p, u, v, w) for u, v, w in triples])
        tf.append(_fd_third_rows(obj, p, triples, THIRD_H))
    ga, Ha = np.reshape(ga, (P, n)), np.reshape(Ha, (P, n * n))
    ta = np.reshape(ta, (P, n_triples))
    grad_err = _max_error(ga, np.reshape(gf, (P, n)),
                          np.abs(ga).max(axis=1, keepdims=True))
    hess_err = _max_error(Ha, np.reshape(Hf, (P, n * n)),
                          np.abs(Ha).max(axis=1, keepdims=True))
    third_err = _max_error(ta, np.reshape(tf, (P, n_triples)), np.abs(ta))
    return DerivativeReport(grad_err, hess_err, third_err)
