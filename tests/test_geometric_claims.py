"""The paper's geometric claims beyond affine maps.

Level-set invariance: the direction is defined by the level set of f
through x, so an increasing phi leaves it unchanged under f -> phi(f).
The step scale is not invariant, since phi'' enters the normal-normal
Hessian entry d_nn and with it the Schur complement.

Local quadratic rate: from x* + eps v, one step x + step_scale * d lands
within a constant times eps^2 of x*, as Newton's step does.
"""
import numpy as np
import pytest
from helpers import rotated_quartic

from affinedescent.direction import (classify_point, descent_direction,
                                     newton_direction)
from affinedescent.numerics import DefinitenessTag, angle_between
from affinedescent.objective import make_objective
from affinedescent.problems import CATALOG_NAMES, catalog

# phi, phi', phi'', phi''' of increasing maps of the value.
PHIS = {
    "cubic": (lambda t: t + t ** 3 / 3.0, lambda t: 1.0 + t * t,
              lambda t: 2.0 * t, lambda t: 2.0),
    "exp": (lambda t: np.exp(t / 10.0), lambda t: np.exp(t / 10.0) / 10.0,
            lambda t: np.exp(t / 10.0) / 100.0,
            lambda t: np.exp(t / 10.0) / 1000.0),
    "tiny_linear": (lambda t: 1e-6 * t, lambda t: 1e-6, lambda t: 0.0,
                    lambda t: 0.0),
}


def composed(obj, phi):
    """phi(f) with its derivatives by the chain rule."""
    p0, p1, p2, p3 = phi

    def hessian(x):
        f, g = obj.value(x), np.asarray(obj.gradient(x), dtype=float)
        return p1(f) * np.asarray(obj.hessian(x)) + p2(f) * np.outer(g, g)

    def third(x, u, v, w):
        f, g, H = obj.value(x), obj.gradient(x), obj.hessian(x)
        gu, gv, gw = g @ u, g @ v, g @ w
        return float(p1(f) * obj.third_directional(x, u, v, w)
                     + p2(f) * ((u @ H @ v) * gw + (u @ H @ w) * gv
                                + (v @ H @ w) * gu)
                     + p3(f) * gu * gv * gw)

    return make_objective(
        dim=obj.dim, value=lambda x: float(p0(obj.value(x))),
        gradient=lambda x: p1(obj.value(x)) * np.asarray(obj.gradient(x)),
        hessian=hessian, third_directional=third, in_domain=obj.in_domain)


def level_set_points():
    """Every catalog start, and seeded points of rotated quartics at
    n = 3..6."""
    points = [(catalog(n).objective, catalog(n).x0) for n in CATALOG_NAMES]
    for n in range(3, 7):
        rng = np.random.default_rng(n)
        obj = rotated_quartic(n, n)
        points += [(obj, rng.normal(size=n)) for _ in range(3)]
    return points


@pytest.mark.parametrize("phi", PHIS)
def test_direction_is_level_set_invariant(phi):
    """The same case, and d within 1e-9 rad, wherever neither tangent block
    is Singular: phi' scales B, which moves the singularity band."""
    compared = 0
    for obj, x in level_set_points():
        res = descent_direction(obj, x)
        phi_obj = composed(obj, PHIS[phi])
        wrapped = descent_direction(phi_obj, x)
        if DefinitenessTag.SINGULAR in (classify_point(obj, x).tag,
                                        classify_point(phi_obj, x).tag):
            continue
        assert wrapped.case is res.case
        assert angle_between(wrapped.d, res.d) <= 1e-9
        compared += 1
    assert compared >= 20


def minimizers():
    return [n for n in CATALOG_NAMES if catalog(n).x_star is not None]


@pytest.mark.parametrize("name", minimizers())
def test_unit_step_converges_quadratically(name):
    """From x* + eps v for 20 seeded unit vectors v, one step lands within
    10 max(1, K) eps^2 of x*, where K is the largest ||x1 - x*|| / eps^2 of
    Newton's step from the same points."""
    p = catalog(name)
    obj, x_star = p.objective, p.x_star
    rng = np.random.default_rng(17)
    vs = rng.normal(size=(20, obj.dim))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    for eps in (1e-2, 1e-3, 1e-4):
        starts = x_star + eps * vs
        newton = max(np.linalg.norm(x + newton_direction(obj, x) - x_star)
                     for x in starts) / eps ** 2
        bound = 10.0 * max(1.0, newton) * eps ** 2
        for x in starts:
            res = descent_direction(obj, x)
            assert np.linalg.norm(x + res.step_scale * res.d - x_star) <= \
                bound, (eps, x)
