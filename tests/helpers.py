"""The test modules' ridge-sum builder, shared families, maps and
stand-in problems, the direction's covariance angle under a map, and the
one rule for "the same bits".

Test modules import these as `from helpers import ...`; no test module
imports another. Each helper draws from a seed or a given generator in a
fixed order, so a seeded case builds the same arrays wherever it runs.
"""
import struct
import warnings
from dataclasses import replace

import numpy as np

from affinedescent.direction import descent_direction
from affinedescent.errors import (DomainViolation, EmptySlice,
                                  NonFiniteHessian, NonFiniteThird,
                                  SingularHessian, ZeroGradient)
from affinedescent.invariance import compose_scaled
from affinedescent.numerics import Frame, angle_between, as_vector
from affinedescent.objective import make_objective
from affinedescent.problems import Problem, catalog

NUMERICAL_OUTCOMES = (ZeroGradient, SingularHessian, NonFiniteHessian,
                      NonFiniteThird, DomainViolation, EmptySlice)


# -- the same bits ------------------------------------------------------------

def bits(value):
    """value as a key that two values share exactly when their bits agree:
    a Python or numpy float is its type and its 8 packed bytes (so -0 is
    not +0, and a NaN is its payload), an array its dtype, shape and bytes,
    and a tuple, list or NamedTuple its type and the bits of each field.
    Anything else is its type and itself."""
    if isinstance(value, (float, np.floating)):
        return type(value), struct.pack("d", value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value), tuple(bits(v) for v in value)
    return type(value), value


def outcome(fn, *args):
    """(fn(*args)'s bits, or its error's type and message; the warnings it
    issued, as (category, message))."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = bits(fn(*args))
        except Exception as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message)) for w in caught]


class Recorder:
    """An objective whose every oracle call is logged as (oracle, bytes of
    each argument), so that two call sequences compare bit for bit."""

    KINDS = ("value", "gradient", "hessian", "third_directional", "in_domain")

    def __init__(self, obj):
        self.calls = []
        self.obj = replace(obj, **{kind: self._logged(kind, getattr(obj, kind))
                                   for kind in self.KINDS})

    def _logged(self, kind, fn):
        def call(*args):
            self.calls.append((kind,) + tuple(
                np.asarray(a, dtype=float).tobytes() for a in args))
            return fn(*args)
        return call

    def of(self, kind):
        return [c for c in self.calls if c[0] == kind]


# -- families ----------------------------------------------------------------

def random_objective(dim, seed, in_domain=None):
    """A smooth seeded objective with consistent analytic derivatives, and a
    point to probe it at."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim)
    M = rng.standard_normal((dim, dim))
    Q = M @ M.T / dim
    c = rng.uniform(0.1, 1.0, dim)

    def value(x):
        return float(a @ x + 0.5 * x @ Q @ x + 0.25 * np.sum(c * x ** 4)
                     + np.sum(np.sin(x)))

    def gradient(x):
        return a + Q @ x + c * x ** 3 + np.cos(x)

    def hessian(x):
        return Q + np.diag(3.0 * c * x ** 2 - np.sin(x))

    def third(x, u, v, w):
        return float(np.sum((6.0 * c * x - np.cos(x)) * u * v * w))

    obj = make_objective(dim, value, gradient, hessian, third, in_domain)
    return obj, rng.standard_normal(dim)


def ridge_objective(A, phi):
    """f(x) = sum_j phi_j(a_j.x) over the rows a_j of the array A, where
    phi = (phi, phi', phi'', phi''') act elementwise on r = A x, with
    arrays for per-row coefficients."""
    f0, f1, f2, f3 = phi
    return make_objective(
        dim=A.shape[1], value=lambda x: float(np.sum(f0(A @ x))),
        gradient=lambda x: A.T @ f1(A @ x),
        hessian=lambda x: (A.T * f2(A @ x)) @ A,
        third_directional=lambda x, u, v, w: float(
            np.sum(f3(A @ x) * (A @ u) * (A @ v) * (A @ w))))


def rotated_quartic(n, seed):
    """f = sum_i a_i y_i^2 / 2 + y_i^4 / 4 with y = Q x for a seeded
    orthogonal Q and a_i of both signs: nonconvex, with level sets of
    every inertia."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = rng.uniform(-2.0, 2.0, n)
    return ridge_objective(Q, (lambda r: 0.5 * a * r ** 2 + 0.25 * r ** 4,
                               lambda r: a * r + r ** 3,
                               lambda r: a + 3.0 * r ** 2,
                               lambda r: 6.0 * r))


def coupled_quartic(a, c):
    """f = (a.x)^3/6 + sum_i c_i x_i^4/24, the ridge sum over the rows of
    [a^T; I]: a non-separable third derivative D3f[u,v,w] =
    (a.u)(a.v)(a.w) + sum_i c_i x_i u_i v_i w_i."""
    p, q = np.eye(a.size + 1)[0], np.r_[0.0, c]    # cubic, quartic rows
    return ridge_objective(np.vstack([a, np.eye(a.size)]), (
        lambda r: p * r ** 3 / 6.0 + q * r ** 4 / 24.0,
        lambda r: p * r ** 2 / 2.0 + q * r ** 3 / 6.0,
        lambda r: p * r + q * r ** 2 / 2.0,
        lambda r: p + q * r))


def quadratic(H, b=None, in_domain=None):
    """f = x.Hx/2 + b.x for any symmetric H (no definiteness required), b
    zero by default, with a zero third derivative."""
    H = np.asarray(H, dtype=float)
    b = np.zeros(len(H)) if b is None else np.asarray(b, dtype=float)
    return make_objective(
        dim=b.size,
        value=lambda x: float(0.5 * x @ H @ x + b @ x),
        gradient=lambda x: H @ x + b,
        hessian=lambda x: H.copy(),
        third_directional=lambda x, u, v, w: 0.0,
        in_domain=in_domain,
    )


def spd_quadratic(rng, n):
    """(objective, A, b) for f = x.Ax/2 + b.x with A = Q diag(U(0.5, 10))
    Q^T for a random orthogonal Q: Q, the spectrum and b are drawn from
    rng in that order."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(rng.uniform(0.5, 10.0, size=n)) @ Q.T
    A = 0.5 * (A + A.T)
    b = rng.normal(size=n)
    return quadratic(A, b), A, b


def flat_valley():
    # f = y^2/2: tangent curvature vanishes everywhere off the x-axis
    return quadratic(np.diag([0.0, 1.0]))


# -- maps and frames ---------------------------------------------------------

def random_gl_plus(rng, dim, log_cond, scale=1.0):
    """scale * U diag(s) V^T with random orthogonal U, V, cond =
    10**log_cond, flipped to det > 0. The scale multiplies U diag(s)
    before V^T does; at 1.0 that product is exact."""
    U, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    u = np.sort(rng.uniform(size=dim))
    u[0], u[-1] = 0.0, 1.0
    A = scale * (U * 10.0 ** (log_cond * u)) @ V.T
    if np.linalg.det(A) < 0.0:
        A[:, 0] = -A[:, 0]
    return A


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


def rotated_frame(frame, rng):
    """frame with its tangent columns turned by a random orthogonal Q (the
    sign of each column of Q fixed by R's diagonal); the normal and the
    gradient norm are kept."""
    m = frame.tangent.shape[1]
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    Q = Q * np.sign(np.diag(R))
    basis = frame.basis.copy()
    basis[:, :m] = frame.tangent @ Q
    return Frame(basis=basis, grad_norm=frame.grad_norm)


# -- stand-in problems whose oracles fail --------------------------------------

def non_finite_third_problem(dim, sign, third):
    """f = (sign x0^2 + x1^2 + ... ) / 2 from e_last, where the gradient is
    e_last and the tangent block is diag(sign, 1, ...): positive definite
    for sign 1, indefinite for -1. The third derivative is `third`."""
    obj = replace(quadratic(np.diag([sign] + [1.0] * (dim - 1))),
                  third_directional=lambda x, u, v, w: third)
    return Problem(name="non_finite_third", objective=obj,
                   x0=np.eye(dim)[-1], x_star=None, f_star=None, notes="")


def nan_gradient_problem(name, at_start=False):
    """Catalog problem whose gradient is NaN everywhere except at x0 (or,
    with at_start, everywhere)."""
    p = catalog(name)
    grad = p.objective.gradient

    def gradient(x):
        g = grad(x)
        if at_start or not np.array_equal(x, p.x0):
            return np.full_like(g, np.nan)
        return g

    return replace(p, objective=replace(p.objective, gradient=gradient))


def nan_hessian_problem(name):
    """Catalog problem whose Hessian is NaN everywhere except at x0."""
    p = catalog(name)
    hess = p.objective.hessian

    def hessian(x):
        H = hess(x)
        if not np.array_equal(x, p.x0):
            return np.full_like(H, np.nan)
        return H

    return replace(p, objective=replace(p.objective, hessian=hessian))
