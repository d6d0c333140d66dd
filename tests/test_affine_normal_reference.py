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

A second reference needs no frame at all. With S = (H + H^T) / 2 and the
bordered matrix K = [[S, n_hat], [n_hat^T, 0]], the leading n x n block of
K^-1 is P = T B^-1 T^T for any orthonormal tangent basis T, and K has one
negative eigenvalue more than B (Nocedal & Wright, Numerical Optimization,
2nd ed., 2006, section 16.2). So one eigendecomposition of K gives the
direction d = P (S n_hat - ||g|| / (m + 2) D3f[P]) - n_hat, with
D3f[P]_j = sum_ab P_ab D3f[e_a, e_b, e_j], the orientation from the parity
of B's negative eigenvalues, and the Schur complement
n_hat.S n_hat - (S n_hat).P (S n_hat) of the step scale.
"""
import csv
from pathlib import Path

import numpy as np
import pytest
from helpers import coupled_quartic, rotated_quartic

from affinedescent.direction import (DirectionCase, affine_normal_direction,
                                     classify_point, descent_direction)
from affinedescent.numerics import (DefinitenessTag, angle_between,
                                    build_gradient_frame)
from affinedescent.problems import CATALOG_NAMES, catalog

RESULTS = Path(__file__).resolve().parent.parent / "results"
# The gate on ||d - d_ref|| / ||d|| for d_ref = T tau_ref - n_hat: as T is
# orthonormal, |tau - tau_ref| / ||(tau, 1)||.
TOL = 1e-6
# The gates of the bordered reference: the angle between the directions
# (radians) and the relative step-scale error.
BORDERED_ANGLE, BORDERED_SCALE = 1e-10, 1e-9
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
    d = affine_normal_direction(obj, x).d
    frame = build_gradient_frame(obj.gradient(x))
    d_ref = frame.tangent @ reference_tau(obj, x) - frame.normal
    return float(np.linalg.norm(d - d_ref) / np.linalg.norm(d))


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
        tag = classify_point(obj, x).tag
        if tag is DefinitenessTag.SINGULAR:
            continue
        tags.add(tag)
        cases.add(descent_direction(obj, x).case)
        errors.append(relative_error(obj, x))
    assert max(errors) <= TOL, errors
    assert tags == {DefinitenessTag.POSITIVE_DEFINITE,
                    DefinitenessTag.OTHER_INDEFINITE}
    assert {DirectionCase.AN, DirectionCase.FLIPPED_AN} <= cases


def bordered_reference(obj, x):
    """(d, FlippedAN?, step scale) from one eigh of the bordered matrix K,
    with D3f[P] from the scalar oracle on the coordinate axes. The step
    scale is ||g|| over the Schur complement where that is positive, and 1
    where it is not, as in the package; its floor of 1e-12 of the block
    scale is far below the complements met here."""
    g = np.asarray(obj.gradient(x), dtype=float)
    H = np.asarray(obj.hessian(x), dtype=float)
    S = 0.5 * (H + H.T)
    gnorm = np.linalg.norm(g)
    n_hat = g / gnorm
    n = x.size
    m = n - 1
    K = np.block([[S, n_hat[:, None]], [n_hat[None, :], np.zeros((1, 1))]])
    lam, V = np.linalg.eigh(K)
    P = (V[:n] / lam) @ V[:n].T
    E = np.eye(n)
    D3 = np.empty((n, n, n))
    for a in range(n):
        for b in range(a, n):
            D3[a, b] = D3[b, a] = [obj.third_directional(x, E[a], E[b], e)
                                   for e in E]
    D3P = np.einsum("ab,abj->j", P, D3)
    Sn = S @ n_hat
    d = P @ (Sn - gnorm / (m + 2.0) * D3P) - n_hat
    flipped = m % 2 == 1 and (np.count_nonzero(lam < 0.0) - 1) % 2 == 1
    schur = n_hat @ Sn - Sn @ P @ Sn
    return d, flipped, gnorm / schur if schur > 0.0 else 1.0


def test_bordered_reference_on_quartics():
    """Both families, six seeds each for every n = 3..10, at a seeded
    point; points whose tangent block is singular fall back and have no
    affine normal."""
    cases, checked = set(), 0
    for n in range(3, 11):
        for seed in range(6):
            rng = np.random.default_rng(100 * n + seed)
            objs = [rotated_quartic(n, seed),
                    coupled_quartic(rng.normal(size=n),
                                    rng.uniform(-2.0, 2.0, size=n))]
            for obj in objs:
                x = rng.normal(size=n)
                res = descent_direction(obj, x)
                if res.case is DirectionCase.STEEPEST_FALLBACK:
                    continue
                d, flipped, step_scale = bordered_reference(obj, x)
                assert angle_between(res.d, d) <= BORDERED_ANGLE, (n, seed)
                assert flipped == (res.case is DirectionCase.FLIPPED_AN)
                assert res.step_scale == pytest.approx(
                    step_scale, rel=BORDERED_SCALE), (n, seed)
                cases.add(res.case)
                checked += 1
    assert checked == 96
    assert cases == {DirectionCase.AN, DirectionCase.FLIPPED_AN}
