"""End-to-end acceptance gate.

Each test function is one numbered criterion; `pytest -v` therefore prints
one pass/fail line per criterion. Tolerances are pinned in the assertions.
Criterion 8 is split into the small-offset angle bound and the
offset-halving clause, which is stated where the cubic term is nonzero
(see the docstring of its test).
"""

import dataclasses

import numpy as np
import pytest
from helpers import rotated_frame, spd_quadratic

from affinedescent.cli import _verify_points, cmd_table2
from affinedescent.direction import (DirectionCase, _matrix_direction,
                                     classify_point, descent_direction)
from affinedescent.line_search import (C1, C2, SIGMA, ArmijoSearch,
                                       ExactSearch, StrongWolfeSearch)
from affinedescent.invariance import run_invariance
from affinedescent.numerics import (DefinitenessTag, angle_between,
                                    build_gradient_frame)
from affinedescent.objective import verify_derivatives
from affinedescent.optimizer import (RunStatus, StoppingSpec,
                                     gradient_descent_run, newton_run,
                                     yand_run)
from affinedescent.problems import CATALOG_NAMES, catalog
from affinedescent.slice_centroid import slice_centroid_direction

STOP = StoppingSpec(tol_grad=1e-4, max_iter=200)
THREE_SEARCHES = (ExactSearch(), ArmijoSearch(), StrongWolfeSearch())
S17, S10 = np.sqrt(17.0), np.sqrt(10.0)


def test_criterion_01_quadratics_converge_in_one_exact_step():
    for name in ("quad_well", "quad_51", "quad_52"):
        p = catalog(name)
        report = yand_run(p, ExactSearch(), STOP)
        assert report.status is RunStatus.CONVERGED, name
        assert report.iters == 1, name
        err = np.max(np.abs(report.final.x - p.x_star))
        assert err <= 1e-8, (name, err)


def test_criterion_02_direction_matches_newton_on_random_spd_quadratics():
    """The direction lies on the Newton ray, and step_scale * d is the
    Newton step itself, within 1e-9 of max(1, its length)."""
    rng = np.random.default_rng(0)
    worst_angle = worst_step = 0.0
    for i in range(50):
        n = 2 + i % 5
        obj, A, _ = spd_quadratic(rng, n)
        x = rng.normal(size=n)
        g = obj.gradient(x)
        if np.linalg.norm(g) < 1e-8:
            continue
        res = descent_direction(obj, x)
        newton = -np.linalg.solve(A, g)
        worst_angle = max(worst_angle, angle_between(res.d, newton))
        worst_step = max(worst_step,
                         float(np.max(np.abs(res.step_scale * res.d - newton)))
                         / max(1.0, float(np.linalg.norm(newton))))
    assert worst_angle <= 1e-8, worst_angle
    assert worst_step <= 1e-9, worst_step


def test_criterion_03_worked_example_values():
    """The worked examples in closed form. results/examples.csv keeps the
    paper's four-decimal values, which test_results_golden checks."""
    # quad_51, f = (x^2 + 4y^2)/2 - x - 4y at (2, 0): B = 20/17, c =
    # -12/17, d_nn = 65/17, so tau = -3/5, and the Schur complement 17/5
    # gives the step scale sqrt(17)/(17/5), whose step lands on the
    # minimizer (1, 1).
    quad = catalog("quad_51")
    res = descent_direction(quad.objective, quad.x0)
    tangent = build_gradient_frame(quad.objective.gradient(quad.x0)).tangent
    tau = tangent.T @ res.d
    assert abs(tau[0] + 0.6) <= 1e-14
    assert np.allclose(res.d, np.array([-3.4, 3.4]) / S17, rtol=0.0,
                       atol=1e-13)
    assert res.T == pytest.approx(0.6, abs=1e-13)
    assert res.case is DirectionCase.AN
    assert classify_point(quad.objective, quad.x0).tag is \
        DefinitenessTag.POSITIVE_DEFINITE
    assert res.step_scale == pytest.approx(S17 / 3.4, rel=1e-13)
    assert np.allclose(quad.x0 + res.step_scale * res.d, [1.0, 1.0],
                       rtol=0.0, atol=1e-12)

    # 3-d quadratic: the direction is an exact coordinate vector.
    quad3 = catalog("quad_52")
    d3 = descent_direction(quad3.objective, quad3.x0).d
    assert np.array_equal(d3, np.array([-1.0, 0.0, 0.0]))

    # convex_53, f = x^2/2 + 2y^2 + x^4/12 at (1, 1): B = 11/5, c = 3/5
    # and the third-derivative pullback 12/11 along the tangent give T =
    # 93/121. The tangential coefficient is read off in the reference
    # tangent basis t = (-3, 1)/sqrt(10); the raw tau sign depends on the
    # basis orientation, d does not.
    conv = catalog("convex_53")
    x = np.array([1.0, 1.0])
    res = descent_direction(conv.objective, x)
    g = conv.objective.gradient(x)
    t_hat = np.array([-3.0, 1.0]) / S10
    assert res.T == pytest.approx(93.0 / 121.0, rel=1e-13)
    assert float(res.d @ t_hat) == pytest.approx(93.0 / 121.0, rel=1e-13)
    assert np.allclose(res.d, np.array([-400.0, -270.0]) / (121.0 * S10),
                       rtol=0.0, atol=1e-13)
    assert float(g @ res.d) == pytest.approx(-40.0 / (3.0 * S10), rel=1e-13)


def test_criterion_04_scaling_table_iteration_counts(tmp_path):
    out = tmp_path / "table2.csv"
    assert cmd_table2(out) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 10.0, 1e2, 1e3, 1e4]
    for r in rows:
        gamma = float(r[0])
        assert r[3] == "1", ("yand_exact", r)
        assert r[8] == "1", ("newton", r)
        assert int(r[4]) <= 20, ("yand_wolfe", r)
        assert int(r[5]) <= 20, ("yand_armijo", r)
        assert int(r[6]) <= 10, ("gd_exact", r)
        if gamma == 1.0:
            assert r[7] == "1", ("gd_fixed", r)
        else:
            assert r[7] == "200*", ("gd_fixed", r)


def test_criterion_05_barrier_runs_stay_feasible_and_converge():
    p = catalog("inverse_barrier")
    assert np.allclose(p.x0, [0.01, 0.98])
    for ls in THREE_SEARCHES:
        report = yand_run(p, ls, STOP)
        assert report.status is RunStatus.CONVERGED, type(ls).__name__
        assert np.linalg.norm(report.final.x - p.x_star) <= 1e-5
        assert abs(report.final.f - 0.7107265761) <= 1e-8
        for rec in report.records:
            assert p.objective.in_domain(rec.x)


def test_criterion_06_rosenbrock_converges_under_all_line_searches():
    p = catalog("rosenbrock")
    assert np.allclose(p.x0, [-1.2, 1.0])
    for ls in THREE_SEARCHES:
        report = yand_run(p, ls, STOP)
        assert report.status is RunStatus.CONVERGED, type(ls).__name__
        assert report.iters <= 200
        assert report.final.grad_norm <= 1e-4


def test_criterion_07_nonconvex_runs_and_symmetry_trap():
    starts = {"ring_tilted": [0.0, 1.5], "saddle_poly": [0.1, 0.2],
              "four_well": [0.1, -1.5]}
    for name, x0 in starts.items():
        p = catalog(name)
        assert np.allclose(p.x0, x0), name
        report = yand_run(p, ExactSearch(), STOP)
        assert report.status is RunStatus.CONVERGED, name
        assert report.final.grad_norm <= 1e-4
        assert report.iters <= 200
        fs = [rec.f for rec in report.records]
        assert all(b < a for a, b in zip(fs, fs[1:])), name

    # Start on the symmetry axis: iterates must stay on it and land on
    # the axis saddle-adjacent stationary point (0, +-1).
    trapped = dataclasses.replace(catalog("four_well"),
                                  x0=np.array([0.0, -1.5]),
                                  x_star=None, f_star=None)
    report = yand_run(trapped, ExactSearch(), STOP)
    assert report.status is RunStatus.CONVERGED
    assert max(abs(rec.x[0]) for rec in report.records) <= 1e-12
    dist = min(np.linalg.norm(report.final.x - np.array([0.0, s]))
               for s in (1.0, -1.0))
    assert dist <= 1e-5


def _slice_angle_errors(name, x, deltas):
    obj = catalog(name).objective
    d_an = descent_direction(obj, x).d
    return [angle_between(slice_centroid_direction(obj, x, delta=d), d_an)
            for d in deltas]


def test_criterion_08_slice_estimate_angle_at_small_offset():
    p = catalog("quad_51")
    err = _slice_angle_errors("quad_51", p.x0, [1e-3])[0]
    assert err <= 1e-2, err


def test_criterion_08_slice_estimate_angle_scales_with_offset():
    """The angle error halves with the offset where the cubic term is
    nonzero: convex_53 at (1, 1) gives ratios near 0.5.

    On a quadratic objective the slice centroid reproduces the analytic
    direction exactly for every offset: the chord midpoint of a conic
    slice lies on the diameter through the analytic direction, so the
    angle error has no first-order term in the offset. quad_51's angles
    (~1e-10 rad) are edge-bisection noise and do not halve with the
    offset, so there the criterion is exactness. The construction fixes
    the estimate's frame-normal component at -1, as the analytic
    direction's."""
    deltas = [1e-2, 5e-3, 2.5e-3]
    errs = _slice_angle_errors("convex_53", np.array([1.0, 1.0]), deltas)
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(0.25 <= r <= 0.75 for r in ratios), (errs, ratios)
    quad = catalog("quad_51")
    d_an = descent_direction(quad.objective, quad.x0).d
    n_hat = build_gradient_frame(quad.objective.gradient(quad.x0)).normal
    for delta in deltas + [1e-3, 1e-4]:
        v = slice_centroid_direction(quad.objective, quad.x0, delta=delta)
        assert angle_between(v, d_an) <= 1e-8, delta
        assert float(v @ n_hat) == pytest.approx(-1.0, abs=1e-12), delta


def test_criterion_09_slice_estimate_ascent_counterexample():
    p = catalog("counterexample")
    x = np.zeros(2)
    v = slice_centroid_direction(p.objective, x, delta=1e-2)
    assert angle_between(v, np.array([0.0, 1.0])) <= 1e-6
    assert float(p.objective.gradient(x) @ v) > 0.0


def test_criterion_10_angle_identity_along_all_trajectories():
    """cos theta = 1/sqrt(1 + T^2) is the angle each step makes: for every
    accepted step of the catalog's runs under the three searches, the
    cosine between x_{k+1} - x_k and -g(x_k) equals row k+1's cos_theta.

    The step is the difference of two rounded iterates, so its cosine
    carries an error of about eps ||x_{k+1}|| / ||x_{k+1} - x_k||. The
    worst of the 615 steps is 4.1e-13, on rosenbrock's exact run at T =
    24, and no step exceeds that rounding estimate."""
    eps = np.finfo(float).eps
    checked = 0
    for name in CATALOG_NAMES:
        p = catalog(name)
        for ls in THREE_SEARCHES:
            report = yand_run(p, ls, STOP)
            for prev, cur in zip(report.records, report.records[1:]):
                g = p.objective.gradient(prev.x)
                step = cur.x - prev.x
                size = np.linalg.norm(step)
                cos = float(-g @ step) / (np.linalg.norm(g) * size)
                bound = 8.0 * eps * (1.0 + np.linalg.norm(cur.x) / size)
                assert abs(cos - cur.cos_theta) <= bound, (name, ls, cur.k)
                checked += 1
    assert checked > 500   # not vacuous; the step count is not the claim


def _accepted_steps(report, objective):
    """Yield (f_prev, g_prev, step, f_new, g_new) for accepted steps."""
    for prev, cur in zip(report.records, report.records[1:]):
        if cur.alpha <= 0.0:
            continue
        yield (prev.f, objective.gradient(prev.x), cur.x - prev.x,
               cur.f, objective.gradient(cur.x))


def test_criterion_11_line_search_contracts_hold_posthoc():
    armijo = ArmijoSearch()
    wolfe = StrongWolfeSearch()
    checked = 0
    for name in CATALOG_NAMES:
        p = catalog(name)
        yand = [("armijo", yand_run(p, armijo, STOP)),
                ("wolfe", yand_run(p, wolfe, STOP))]
        if p.x_star is not None:
            for kind, report in yand:
                assert report.status is RunStatus.CONVERGED, (name, kind)
        runs = yand + [
            ("armijo", gradient_descent_run(p, armijo, STOP)),
            ("wolfe", gradient_descent_run(p, wolfe, STOP)),
            ("wolfe", newton_run(p, damped=True, ls=StrongWolfeSearch(),
                                 stop=STOP)),
        ]
        for kind, report in runs:
            fs = [rec.f for rec in report.records]
            assert all(b < a for a, b in zip(fs, fs[1:])), (name, kind)
            for f0, g0, step, f1, g1 in _accepted_steps(report, p.objective):
                slope = float(g0 @ step)
                if kind == "armijo":
                    assert f1 <= f0 + SIGMA * slope + 1e-12, (name,)
                else:
                    assert f1 <= f0 + C1 * slope + 1e-12, (name,)
                    assert abs(float(g1 @ step)) <= (
                        C2 * abs(slope) + 1e-12), (name,)
                checked += 1
    assert checked > 100


def test_criterion_12_scaled_iterates_map_onto_base_iterates():
    base = catalog("strongly_convex_base")
    tight = StoppingSpec(tol_grad=1e-12, max_iter=200)
    for gamma in (10.0, 1e2, 1e4):
        rep = run_invariance(base, np.diag([1.0, gamma]), ExactSearch(),
                             tight)
        for run in (rep.base, rep.scaled):
            assert run.status is RunStatus.CONVERGED, gamma
            assert all(r.case == "AN" for r in run.records[1:]), gamma
        assert rep.scaled.iters == rep.base.iters, gamma
        assert len(rep.per_iterate_deviation) >= 4
        assert all(dev <= 1e-6 for dev in rep.per_iterate_deviation[:10])


def test_criterion_13_derivative_checks_pass_on_catalog():
    rng = np.random.default_rng(42)
    for name in CATALOG_NAMES:
        p = catalog(name)
        report = verify_derivatives(p.objective, _verify_points(p, rng),
                                    rng=rng)
        assert report.grad_err <= 1e-7, (name, report.grad_err)
        assert report.hess_err <= 1e-5, (name, report.hess_err)
        assert report.third_err <= 1e-3, (name, report.third_err)
        assert report.ok


def test_criterion_14_full_steps_and_quadratic_ratios_near_optimum():
    for name in ("quad_well", "poly6"):
        p = catalog(name)
        report = yand_run(p, ArmijoSearch(), STOP)
        assert report.status is RunStatus.CONVERGED, name
        alphas = [rec.alpha for rec in report.records[1:]]
        tail = min(2, len(alphas))
        assert all(a == 1.0 for a in alphas[-tail:]), (name, alphas)
        errs = [np.linalg.norm(rec.x - p.x_star) for rec in report.records]
        last = [e1 / (e0 * e0) for e0, e1 in zip(errs, errs[1:])][-tail:]
        assert all(np.isfinite(r) and r <= 1e3 for r in last), (name, last)


def test_criterion_15_direction_unchanged_under_tangent_rotation():
    rng = np.random.default_rng(123)
    worst = 0.0
    checked = 0
    names = list(CATALOG_NAMES)
    while checked < 200:
        p = catalog(names[checked % len(names)])
        obj = p.objective
        x = np.asarray(p.x0, float) + 0.4 * rng.uniform(-1, 1, size=obj.dim)
        if not obj.in_domain(x):
            continue
        if np.linalg.norm(obj.gradient(x)) < 1e-8:
            continue
        rotated = rotated_frame(build_gradient_frame(obj.gradient(x)), rng)
        r0 = descent_direction(obj, x)
        r1 = _matrix_direction(obj, x, rotated)
        assert r0.case == r1.case
        assert r0.T == pytest.approx(r1.T, rel=1e-9, abs=1e-12)
        assert r0.step_scale == pytest.approx(r1.step_scale, rel=1e-9)
        worst = max(worst, float(np.max(np.abs(r0.d - r1.d))))
        checked += 1
    assert worst <= 1e-9, worst
