"""The affine normal against an independent reference built from f, g and H
only, in any dimension and at saddle-shaped level sets.

Near x the level set {f = f(x)} is the graph z(y) = x + T y + h(y) n_hat
over the tangent columns T of the package's gradient frame, with h(0) = 0.
For a graph with Hessian H_h, the affine normal is parallel to
n_hat - T tau_ref with

    tau_ref = H_h(0)^-1 grad log|det H_h|(0) / (m + 2)

(Nomizu & Sasaki, Affine Differential Geometry, 1994, on the Blaschke
normal of a graph). The package's direction d = T tau - n_hat is that line
with frame-normal component -1, so tau must equal tau_ref. Here H_h comes
from the gradient and Hessian on the level set by implicit
differentiation, and the gradient of log|det H_h| from central differences
of it. No third derivative is used, so the reference checks the
third-derivative closures and the (m + 2) weight of the correction term
together.
"""
import csv
from pathlib import Path

import numpy as np
import pytest
from test_direction import coupled_quartic

from affinedescent.direction import (DirectionCase, affine_normal_direction,
                                     descent_direction)
from affinedescent.numerics import DefinitenessTag, build_gradient_frame
from affinedescent.objective import make_objective
from affinedescent.problems import CATALOG_NAMES, catalog

RESULTS = Path(__file__).resolve().parent.parent / "results"
# The gate on |tau - tau_ref| / ||(tau, 1)||.
TOL = 1e-6
# Central-difference steps STEP * rho / RATIO**k for k = 0..STEPS - 1, with
# rho = min(1, the least radius of curvature of the level set at x).
STEP, RATIO, STEPS = 0.1, 4.0, 9


def level_set_hessian(obj, x, f0, frame, y):
    """H_h(y) for the graph x + T y + h(y) n_hat of {f = f0}: h(y) by
    Newton's method along n_hat until its steps stop shrinking, then
    implicit differentiation of F(y, h) = f(x + T y + h n_hat) - f0 = 0.
    NaNs where the solve leaves the domain."""
    T, n = frame.tangent, frame.normal
    p = x + T @ y
    h, last = 0.0, np.inf
    for _ in range(50):
        z = p + h * n
        step = (obj.value(z) - f0) / float(np.asarray(obj.gradient(z)) @ n)
        if not np.isfinite(step):
            return np.full((y.size, y.size), np.nan)
        h -= step
        if not abs(step) < 0.5 * last:   # rounding, not convergence
            break
        last = abs(step)
    z = p + h * n
    g = np.asarray(obj.gradient(z), dtype=float)
    H = np.asarray(obj.hessian(z), dtype=float)
    F_h = float(n @ g)
    h_y = -(T.T @ g) / F_h
    F_yh = T.T @ H @ n
    cross = np.outer(F_yh, h_y)
    return -(T.T @ H @ T + cross + cross.T
             + float(n @ H @ n) * np.outer(h_y, h_y)) / F_h


def log_det_gradient(log_det, m, rho):
    """grad log|det H_h|(0) by central differences at the steps
    STEP * rho / RATIO**k, each extrapolated with the next (Richardson, so
    the error is fourth order in the step). Large steps err by truncation
    and small ones by rounding; it returns the extrapolation that differs
    least from the next one, where the two balance."""
    def central(s):
        return np.array([(log_det(s * e) - log_det(-s * e)) / (2.0 * s)
                         for e in np.eye(m)])

    diffs = [central(STEP * rho / RATIO ** k) for k in range(STEPS)]
    r2 = RATIO * RATIO
    extrapolated = [(r2 * fine - coarse) / (r2 - 1.0)
                    for coarse, fine in zip(diffs, diffs[1:])]
    spread = [np.abs(a - b).max()
              for a, b in zip(extrapolated, extrapolated[1:])]
    return extrapolated[int(np.nanargmin(spread))]


def reference_tau(obj, x):
    frame = build_gradient_frame(obj.gradient(x))
    f0 = obj.value(x)
    m = frame.tangent.shape[1]
    H0 = level_set_hessian(obj, x, f0, frame, np.zeros(m))
    # The level set's normal curvatures are the eigenvalues of H_h(0).
    rho = min(1.0, 1.0 / np.abs(H0).max())

    def log_det(y):
        return np.linalg.slogdet(level_set_hessian(obj, x, f0, frame, y))[1]

    with np.errstate(all="ignore"):   # stencil points outside the domain
        grad = log_det_gradient(log_det, m, rho)
    return np.linalg.solve(H0, grad) / (m + 2.0)


def relative_error(obj, x):
    x = np.asarray(x, dtype=float)
    tau = affine_normal_direction(obj, x).tau
    return float(np.linalg.norm(reference_tau(obj, x) - tau)
                 / np.sqrt(1.0 + tau @ tau))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_starts(name):
    """Every catalog start has a nonsingular tangent block."""
    p = catalog(name)
    assert relative_error(p.objective, p.x0) <= TOL


def trajectory_iterates(path):
    """The iterates of a committed run at which it computed a direction:
    every row but the last, where it stopped."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [np.array([float(v) for k, v in row.items() if k.startswith("x")])
            for row in rows[:-1]]


@pytest.mark.parametrize("path", sorted(RESULTS.glob("traj_*.csv")),
                         ids=lambda path: path.stem)
def test_trajectory_iterates(path):
    problem = path.stem.removeprefix("traj_").rsplit("_", 2)[0]
    obj = catalog(problem).objective
    xs = trajectory_iterates(path)
    assert xs
    errors = [relative_error(obj, x) for x in xs]
    assert max(errors) <= TOL, errors


def rotated_quartic(n, seed):
    """f = sum_i a_i y_i^2 / 2 + y_i^4 / 4 with y = Q x for a seeded
    orthogonal Q and a_i of both signs: nonconvex, with level sets of
    every inertia."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = rng.uniform(-2.0, 2.0, n)
    return make_objective(
        dim=n,
        value=lambda x: float(np.sum(0.5 * a * (Q @ x) ** 2
                                     + 0.25 * (Q @ x) ** 4)),
        gradient=lambda x: Q.T @ (a * (Q @ x) + (Q @ x) ** 3),
        hessian=lambda x: (Q.T * (a + 3.0 * (Q @ x) ** 2)) @ Q,
        third_directional=lambda x, u, v, w: float(
            np.sum(6.0 * (Q @ x) * (Q @ u) * (Q @ v) * (Q @ w))))


def quartic_points():
    """Seeded (objective, point) pairs from both families, three of each
    for every n = 2..10."""
    out = []
    for n in range(2, 11):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            objs = [rotated_quartic(n, seed),
                    coupled_quartic(rng.normal(size=n),
                                    rng.uniform(-2.0, 2.0, size=n))]
            out += [(obj, rng.normal(size=n)) for obj in objs]
    return out


def test_nonconvex_quartics():
    tags, cases, errors = set(), set(), []
    for obj, x in quartic_points():
        res = descent_direction(obj, x)
        if res.point_class.tag is DefinitenessTag.SINGULAR:
            continue
        tags.add(res.point_class.tag)
        cases.add(res.case)
        errors.append(relative_error(obj, x))
    assert max(errors) <= TOL, errors
    assert tags == {DefinitenessTag.POSITIVE_DEFINITE,
                    DefinitenessTag.OTHER_INDEFINITE}
    assert {DirectionCase.AN, DirectionCase.FLIPPED_AN} <= cases
