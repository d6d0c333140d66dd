"""Benchmark catalog: smooth test objectives with analytic value, gradient,
Hessian, and directional third derivative, plus start points and reference
optima (closed-form where available, else stated to full double precision).

Writing a catalog oracle:
- Spell a 2-D formula on the numpy scalars x[0], x[1] and convert only the
  value with float(). A helper that returns float(...) turns a later
  power into a Python-float one, which raises OverflowError where numpy
  gives inf and a warning.
- Never fold a `0.0 *` product or a `0.0 +` sum: each can carry or clear
  the sign of a zero.
- The quadratics stay on `ndarray.dot`, whose 2-element products OpenBLAS
  fuses into multiply-adds that plain float arithmetic does not reproduce.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, sqrt
from typing import NamedTuple

import numpy as np

from .numerics import Vector, as_vector, positive_finite
from .objective import Objective, make_objective


@dataclass(frozen=True)
class Problem:
    """An objective with its start point and, if known, its optimum."""

    name: str
    objective: Objective
    x0: Vector
    x_star: Vector | None
    f_star: float | None
    notes: str

    def __post_init__(self):
        # The descent direction splits the space into the gradient line and
        # its tangent complement, which is empty in one dimension.
        dim = self.objective.dim
        if dim < 2:
            raise ValueError(
                f"{self.name}: dimension {dim} < 2 has no tangent space for "
                "the gradient frame")
        as_vector(self.x0, dim)
        if self.x_star is not None:
            as_vector(self.x_star, dim)


def _quadratic_problem(name: str, A, b, x0, notes: str) -> Problem:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    # x (A/2) x is (x/2) A x bit for bit at any float64 x for the
    # catalog's matrices, with A/2 formed once (test_numpy_identities.py).
    half_A = 0.5 * A

    def value(x):
        return float(x.dot(half_A).dot(x) + b.dot(x))

    def gradient(x):
        return A.dot(x) + b

    def hessian(x):
        return A.copy()

    def third(x, u, v, w):
        return 0.0

    obj = make_objective(len(b), value, gradient, hessian, third)
    x_star = np.linalg.solve(A, -b)
    return Problem(name, obj, as_vector(x0), x_star, obj.value(x_star), notes)


# ---------------------------------------------------------------- catalog


def _build_quad_well() -> Problem:
    return _quadratic_problem(
        "quad_well", np.diag([2.0, 8.0]), np.array([0.1, 0.2]),
        (1.0, 1.0), "anisotropic convex quadratic bowl")


def _build_quad_51() -> Problem:
    return _quadratic_problem(
        "quad_51", np.diag([1.0, 4.0]), np.array([-1.0, -4.0]),
        (2.0, 0.0), "2-variable quadratic used for the hand-worked direction")


def _build_quad_52() -> Problem:
    return _quadratic_problem(
        "quad_52", np.diag([1.0, 4.0, 9.0]), np.array([-1.0, 0.0, 0.0]),
        (2.0, 0.0, 0.0), "3-variable quadratic with zero cross coupling")


def _build_convex_53() -> Problem:
    # f = x^2/2 + 2 y^2 + x^4/12, strictly convex, nonzero third derivative
    def value(x):
        return float(0.5 * x[0] ** 2 + 2.0 * x[1] ** 2 + x[0] ** 4 / 12.0)

    def gradient(x):
        return np.array([x[0] + x[0] ** 3 / 3.0, 4.0 * x[1]])

    def hessian(x):
        return np.array([[1.0 + x[0] ** 2, 0.0], [0.0, 4.0]])

    def third(x, u, v, w):
        return float(2.0 * x[0] * u[0] * v[0] * w[0])

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("convex_53", obj, np.array([1.0, 1.0]), np.zeros(2), 0.0,
                   "strictly convex quartic-augmented bowl")


def _build_poly6() -> Problem:
    # f = (x1^2 + 4 x2^2)^3 + 0.1 |x|^2 + 0.01 (x1 + 2 x2)
    Q = np.diag([2.0, 8.0])
    ridge = 0.2 * np.eye(2)
    lin = np.array([0.01, 0.02])

    def q(x):
        return x[0] ** 2 + 4.0 * x[1] ** 2

    def gq(x):
        return np.array([2.0 * x[0], 8.0 * x[1]])

    def value(x):
        return float(q(x) ** 3 + 0.1 * (x[0] ** 2 + x[1] ** 2) + lin.dot(x))

    def gradient(x):
        return 3.0 * q(x) ** 2 * gq(x) + 0.2 * x + lin

    def hessian(x):
        g = gq(x)
        return 6.0 * q(x) * (g[:, None] * g) + 3.0 * q(x) ** 2 * Q + ridge

    def third(x, u, v, w):
        g = gq(x)
        u, v = np.asarray(u), np.asarray(v)   # array-likes, as matmul takes
        gu, gv, gw = float(g.dot(u)), float(g.dot(v)), float(g.dot(w))
        return float(6.0 * gu * gv * gw + 6.0 * q(x) * (
            float(u.dot(Q).dot(w)) * gv + float(v.dot(Q).dot(w)) * gu
            + float(u.dot(Q).dot(v)) * gw))

    obj = make_objective(2, value, gradient, hessian, third)
    x_star = np.array([-0.04837739824833604, -0.08817082809036664])
    return Problem("poly6", obj, np.array([0.5, -0.5]), x_star,
                   obj.value(x_star),
                   "sixth-degree anisotropic convex polynomial")


def _build_inverse_barrier() -> Problem:
    mu = 1.0
    ones, eye, ones22 = np.ones(2), np.eye(2), np.ones((2, 2))

    def slack(x):
        return 1.0 - x[0] - x[1]

    def in_domain(x):
        return slack(x) > 0.0

    def value(x):
        return float(0.5 * (x[0] ** 2 + x[1] ** 2) + mu / slack(x))

    def gradient(x):
        u = slack(x)
        return x + (mu / u ** 2) * ones

    def hessian(x):
        u = slack(x)
        return eye + (2.0 * mu / u ** 3) * ones22

    def third(x, u, v, w):
        s = slack(x)
        return float((6.0 * mu / s ** 4) * (u[0] + u[1]) * (v[0] + v[1])
                     * (w[0] + w[1]))

    obj = make_objective(2, value, gradient, hessian, third, in_domain)
    x_star, f_star = inverse_barrier_optimum()
    return Problem(
        "inverse_barrier", obj, np.array([0.01, 0.98]), x_star, f_star,
        "quadratic bowl plus inverse barrier on the half-space x1+x2 < 1")


def _build_rosenbrock() -> Problem:
    def value(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def gradient(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    def hessian(x):
        return np.array([
            [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
            [-400.0 * x[0], 200.0],
        ])

    def third(x, u, v, w):
        # nonzero entries: fxxx = 2400 x1, fxxy (all orders) = -400
        return float(2400.0 * x[0] * u[0] * v[0] * w[0]
                     - 400.0 * (u[0] * v[0] * w[1] + u[0] * v[1] * w[0]
                                + u[1] * v[0] * w[0]))

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("rosenbrock", obj, np.array([-1.2, 1.0]),
                   np.array([1.0, 1.0]), 0.0, "classical banana valley")


def _build_ring_tilted() -> Problem:
    tilt = 0.1
    eye = np.eye(2)

    def p(x):
        return x[0] ** 2 + x[1] ** 2 - 1.0

    def value(x):
        return float(p(x) ** 2 + tilt * x[0])

    def gradient(x):
        return 4.0 * p(x) * x + np.array([tilt, 0.0])

    def hessian(x):
        xa = np.asarray(x)   # np.outer took array-likes
        return 4.0 * p(x) * eye + 8.0 * (xa[:, None] * xa)

    def third(x, u, v, w):
        x, u, v = np.asarray(x), np.asarray(u), np.asarray(v)
        return float(8.0 * (float(x.dot(w)) * float(u.dot(v))
                            + float(u.dot(w)) * float(x.dot(v))
                            + float(v.dot(w)) * float(x.dot(u))))

    obj = make_objective(2, value, gradient, hessian, third)
    x_star = np.array([-1.012273131032681, 0.0])
    return Problem("ring_tilted", obj, np.array([0.0, 1.5]), x_star,
                   obj.value(x_star),
                   "ring-shaped valley tilted by a linear term")


def _build_saddle_poly() -> Problem:
    def value(x):
        return float(x[0] ** 4 - x[0] ** 2 + x[1] ** 2)

    def gradient(x):
        return np.array([4.0 * x[0] ** 3 - 2.0 * x[0], 2.0 * x[1]])

    def hessian(x):
        return np.array([[12.0 * x[0] ** 2 - 2.0, 0.0], [0.0, 2.0]])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0])

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("saddle_poly", obj, np.array([0.1, 0.2]),
                   np.array([1.0 / sqrt(2.0), 0.0]), -0.25,
                   "strict saddle at the origin, wells on the x1 axis")


def _build_four_well() -> Problem:
    def value(x):
        return float((x[0] ** 2 - 1.0) ** 2 + (x[1] ** 2 - 1.0) ** 2)

    def gradient(x):
        return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0),
                         4.0 * x[1] * (x[1] ** 2 - 1.0)])

    # np.diag, not an array literal, whose float zeros would widen the
    # Hessian at a float32 x to float64.
    def hessian(x):
        return np.diag([12.0 * x[0] ** 2 - 4.0, 12.0 * x[1] ** 2 - 4.0])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0]
                     + 24.0 * x[1] * u[1] * v[1] * w[1])

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("four_well", obj, np.array([0.1, -1.5]),
                   np.array([1.0, -1.0]), 0.0,
                   "quartic with four equivalent wells at (+-1, +-1)")


def _build_counterexample() -> Problem:
    # unbounded below; used only for the slice-direction misclassification demo
    def value(x):
        return float((x[0] ** 2 - 1.0) ** 2 + x[1] - 1.0)

    def gradient(x):
        return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0), 1.0])

    def hessian(x):
        return np.array([[12.0 * x[0] ** 2 - 4.0, 0.0], [0.0, 0.0]])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0])

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("counterexample", obj, np.zeros(2), None, None,
                   "nonconvex level sets; slice centroid points uphill")


def _build_strongly_convex_base() -> Problem:
    # phi(y) = |y|^2/2 + (y1^4 + y2^4)/12: strictly convex, elliptic level
    # sets, asymmetric start so runs take several iterations
    def value(x):
        return float(0.5 * (x[0] ** 2 + x[1] ** 2)
                     + (x[0] ** 4 + x[1] ** 4) / 12.0)

    def gradient(x):
        return np.array([x[0] + x[0] ** 3 / 3.0, x[1] + x[1] ** 3 / 3.0])

    def hessian(x):
        return np.diag([1.0 + x[0] ** 2, 1.0 + x[1] ** 2])   # as four_well

    def third(x, u, v, w):
        return float(2.0 * x[0] * u[0] * v[0] * w[0]
                     + 2.0 * x[1] * u[1] * v[1] * w[1])

    obj = make_objective(2, value, gradient, hessian, third)
    return Problem("strongly_convex_base", obj, np.array([1.2, -0.7]),
                   np.zeros(2), 0.0,
                   "quartic-regularized bowl for scaling studies")


_BUILDERS = {
    "quad_well": _build_quad_well,
    "quad_51": _build_quad_51,
    "quad_52": _build_quad_52,
    "convex_53": _build_convex_53,
    "poly6": _build_poly6,
    "inverse_barrier": _build_inverse_barrier,
    "rosenbrock": _build_rosenbrock,
    "ring_tilted": _build_ring_tilted,
    "saddle_poly": _build_saddle_poly,
    "four_well": _build_four_well,
    "counterexample": _build_counterexample,
    "strongly_convex_base": _build_strongly_convex_base,
}

CATALOG_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def catalog(name: str) -> Problem:
    if name not in _BUILDERS:
        raise ValueError(f"unknown problem {name!r}; known: "
                         f"{', '.join(CATALOG_NAMES)}")
    return _BUILDERS[name]()


def inverse_barrier_optimum() -> tuple[Vector, float]:
    """Closed-form optimum of the inverse-barrier problem.

    The stationarity condition along the symmetry line x1 = x2 = s/2
    reduces to s(1-s)^2 + 2 = 0, whose real root is
    s = 2/3 - (r^(1/3) + r^(-1/3))/3 with r = 3*sqrt(87) + 28.
    """
    r = 3.0 * sqrt(87.0) + 28.0
    cr = r ** (1.0 / 3.0)
    s = 2.0 / 3.0 - (cr + 1.0 / cr) / 3.0
    x_star = np.array([0.5 * s, 0.5 * s])
    f_star = s * s / 4.0 + 1.0 / (1.0 - s)
    return x_star, float(f_star)


class AffineScalingSpec(NamedTuple):
    B: np.ndarray
    base: Problem


def make_affine_scaled(gamma: float) -> tuple[Problem, AffineScalingSpec]:
    """The diagonally scaled bowl f(x) = (x1^2 + gamma^2 x2^2)/2 from
    (1,1), paired with its scaling spec (B = diag(1, gamma) applied to an
    isotropic bowl started at B @ x0). Raises ValueError unless gamma and
    gamma^2 are finite and positive."""
    positive_finite("gamma", gamma)
    g = float(gamma)
    # g * g, not g ** 2, which raises OverflowError on a Python float
    if not 0.0 < g * g < inf:
        raise ValueError(f"gamma = {g:g}: its square {g * g:g} must be "
                         "finite and positive")
    scaled = _quadratic_problem(
        f"affine_scaled_{g:g}", np.diag([1.0, g * g]),
        np.zeros(2), (1.0, 1.0),
        f"diagonally scaled bowl, Hessian condition {g * g:g}")
    base = _quadratic_problem(
        "isotropic_bowl", np.eye(2), np.zeros(2), (1.0, g),
        "unit bowl seen through the scaling")
    return scaled, AffineScalingSpec(B=np.diag([1.0, g]), base=base)
