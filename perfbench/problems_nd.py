"""Seeded n-dimensional problems with closed-form derivatives to third order.

Each problem is a fixed function composed with a seeded isometry
y = Q (x - c): Q is a random orthogonal matrix and c a random shift, both
drawn from the seed. Gradient descent, damped Newton and the affine-normal
direction are all invariant under isometries, so in exact arithmetic every
seed gives the same iterates (up to the map), the same iteration counts and
the same direction cases. That is what lets one golden record serve every
seed. Rounding still differs between seeds, so the number of value calls an
exact line search makes can differ by a few.

The objectives are built only through the public ``make_objective`` and its
scalar third-derivative oracle ``third_directional(x, u, v, w)``. A change to
that oracle interface has to adapt this file, in a benchmark change of its own.
"""
from __future__ import annotations

import numpy as np

from affinedescent import Problem, make_objective, verify_derivatives

# Problems of the n-D workloads, in pass order: (name, family, dimension).
SPECS = (
    ("rq10", "quartic", 10),
    ("rq20", "quartic", 20),
    ("rq40", "quartic", 40),
    ("rosen20", "rosenbrock", 20),
)


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rotated_quartic(name: str, n: int, rng: np.random.Generator) -> Problem:
    """f(x) = sum_i a_i y_i^2 / 2 + y_i^4 / 4 with y = Q (x - c).

    a_i spans [1, 100] log-uniformly, so the quadratic part has condition
    number 100 and gradient descent needs several hundred iterations. The
    unique minimizer is x* = c.
    """
    Q = _orthogonal(rng, n)
    c = rng.standard_normal(n)
    a = np.logspace(0.0, 2.0, n)
    y0 = np.where(np.arange(n) % 2 == 0, 1.0, -0.5)

    def value(x):
        y = Q @ (x - c)
        y2 = y * y
        return float(np.sum(0.5 * a * y2 + 0.25 * y2 * y2))

    def gradient(x):
        y = Q @ (x - c)
        return Q.T @ (a * y + y * y * y)

    def hessian(x):
        y = Q @ (x - c)
        return (Q.T * (a + 3.0 * y * y)) @ Q

    def third(x, u, v, w):
        return float((6.0 * (Q @ (x - c)) * (Q @ u) * (Q @ v)) @ (Q @ w))

    obj = make_objective(n, value, gradient, hessian, third)
    return Problem(name, obj, c + Q.T @ y0, c.copy(), 0.0,
                   f"rotated separable quartic, n={n}")


def extended_rosenbrock(name: str, n: int, rng: np.random.Generator) -> Problem:
    """Extended Rosenbrock (More, Garbow & Hillstrom 1981, problem 21) in the
    coordinates y = Q (x - c) + 1, from the standard start (-1.2, 1, ...).

    f = sum over pairs (p, q) = (y_2i-1, y_2i) of 100 (q - p^2)^2 + (1 - p)^2;
    the minimizer is x* = c.
    """
    if n % 2:
        raise ValueError("extended Rosenbrock needs an even dimension")
    Q = _orthogonal(rng, n)
    c = rng.standard_normal(n)
    y0 = np.tile([-1.2, 1.0], n // 2)
    first = np.arange(0, n, 2)

    def value(x):
        y = Q @ (x - c) + 1.0
        p, q = y[0::2], y[1::2]
        return float(np.sum(100.0 * (q - p * p) ** 2 + (1.0 - p) ** 2))

    def gradient(x):
        y = Q @ (x - c) + 1.0
        p, q = y[0::2], y[1::2]
        gy = np.empty(n)
        gy[0::2] = -400.0 * p * (q - p * p) - 2.0 * (1.0 - p)
        gy[1::2] = 200.0 * (q - p * p)
        return Q.T @ gy

    def hessian(x):
        y = Q @ (x - c) + 1.0
        p, q = y[0::2], y[1::2]
        Hy = np.zeros((n, n))
        Hy[first, first] = 1200.0 * p * p - 400.0 * q + 2.0
        Hy[first, first + 1] = Hy[first + 1, first] = -400.0 * p
        Hy[first + 1, first + 1] = 200.0
        return Q.T @ Hy @ Q

    def third(x, u, v, w):
        p = (Q @ (x - c))[0::2] + 1.0
        U, V, W = Q @ u, Q @ v, Q @ w
        up, vp, wp = U[0::2], V[0::2], W[0::2]
        # nonzero entries per pair: f_ppp = 2400 p, f_ppq (all orders) = -400
        return float(np.sum(2400.0 * p * up * vp * wp
                            - 400.0 * (up * vp * W[1::2] + up * V[1::2] * wp
                                       + U[1::2] * vp * wp)))

    obj = make_objective(n, value, gradient, hessian, third)
    return Problem(name, obj, c + Q.T @ (y0 - 1.0), c.copy(), 0.0,
                   f"extended Rosenbrock, n={n}")


_FAMILIES = {"quartic": rotated_quartic, "rosenbrock": extended_rosenbrock}


def generate(seed: int) -> list[Problem]:
    """The n-D problem set for one seed, in the order of SPECS."""
    rng = np.random.default_rng(seed)
    return [_FAMILIES[family](name, n, rng) for name, family, n in SPECS]


def check_derivatives(problems: list[Problem], seed: int) -> None:
    """Finite-difference check of every oracle at the start point and at a
    point between start and solution; raises when any derivative is off."""
    rng = np.random.default_rng(seed)
    for p in problems:
        points = [p.x0, 0.5 * (p.x0 + p.x_star)]
        report = verify_derivatives(p.objective, points, rng=rng, n_triples=3)
        if not report.ok:
            raise RuntimeError(f"{p.name}: analytic derivatives disagree with "
                               f"finite differences: {report}")
