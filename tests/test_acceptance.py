"""End-to-end acceptance gate.

Each test function is one numbered criterion; `pytest -v` therefore prints
one pass/fail line per criterion. Tolerances are pinned in the assertions.
Criterion 8 is split into the small-offset angle bound and the
offset-halving clause, which is stated where the cubic term is nonzero
(see the docstring of its test).
"""

import dataclasses

import numpy as np

from affinedescent.cli import _build_specs, _verify_points, cmd_table2
from affinedescent.direction import _matrix_direction, descent_direction
from affinedescent.line_search import (ArmijoSearch, ExactSearch,
                                       StrongWolfeSearch)
from affinedescent.invariance import run_invariance
from affinedescent.numerics import Frame, angle_between, build_gradient_frame
from affinedescent.objective import make_objective, verify_derivatives
from affinedescent.optimizer import (RunStatus, StoppingSpec, empirical_rates,
                                     gradient_descent_run, newton_run,
                                     yand_run)
from affinedescent.problems import CATALOG_NAMES, catalog
from affinedescent.slice_centroid import slice_centroid_direction

STOP = StoppingSpec(tol_grad=1e-4, max_iter=200)
THREE_SEARCHES = (ExactSearch(), ArmijoSearch(), StrongWolfeSearch())


def test_criterion_01_quadratics_converge_in_one_exact_step():
    for name in ("quad_well", "quad_51"):
        p = catalog(name)
        report = yand_run(p, ExactSearch(), STOP)
        assert report.status is RunStatus.CONVERGED, name
        assert report.iters == 1, name
        err = np.max(np.abs(report.final.x - p.x_star))
        assert err <= 1e-8, (name, err)


def test_criterion_02_direction_matches_newton_on_random_spd_quadratics():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        n = 2 + i % 5
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = Q @ np.diag(rng.uniform(0.5, 10.0, size=n)) @ Q.T
        A = 0.5 * (A + A.T)
        b = rng.normal(size=n)
        obj = make_objective(
            n,
            lambda x, A=A, b=b: 0.5 * x @ A @ x + b @ x,
            lambda x, A=A, b=b: A @ x + b,
            lambda x, A=A: A,
            lambda x, u, v, w: 0.0)
        x = rng.normal(size=n)
        g = obj.gradient(x)
        if np.linalg.norm(g) < 1e-8:
            continue
        d = descent_direction(obj, x).d
        newton = -np.linalg.solve(A, g)
        worst = max(worst, angle_between(d, newton))
    assert worst <= 1e-8, worst


def test_criterion_03_worked_example_values():
    from affinedescent.direction import affine_normal_direction

    # 2-d quadratic: tangential coefficient is exactly -3/5.
    quad = catalog("quad_51")
    tau = affine_normal_direction(quad.objective, quad.x0).tau
    assert abs(tau[0] + 0.6) <= 1e-14

    # 3-d quadratic: the direction is an exact coordinate vector.
    quad3 = catalog("quad_52")
    d3 = affine_normal_direction(quad3.objective, quad3.x0).d
    assert np.array_equal(d3, np.array([-1.0, 0.0, 0.0]))

    # Nonquadratic convex case at (1,1), direction normalized so the
    # frame-normal component is -1. The tangential coefficient is read
    # off in the reference tangent basis t = (-3,1)/sqrt(10); the raw
    # tau sign depends on the basis orientation, d does not.
    conv = catalog("convex_53")
    x = np.array([1.0, 1.0])
    d_c = affine_normal_direction(conv.objective, x).d
    g = conv.objective.gradient(x)
    t_hat = np.array([-3.0, 1.0]) / np.sqrt(10.0)
    assert abs(float(d_c @ t_hat) - 0.7687) <= 1e-3
    assert abs(d_c[0] - (-1.0454)) <= 1e-3
    assert abs(d_c[1] - (-0.7056)) <= 1e-3
    assert abs(float(g @ d_c) - (-4.2164)) <= 1e-3


def test_criterion_04_scaling_table_iteration_counts(tmp_path):
    out = tmp_path / "table2.csv"
    assert cmd_table2(_build_specs({}), out) == 0
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
    offset, so there the criterion is exactness."""
    deltas = [1e-2, 5e-3, 2.5e-3]
    errs = _slice_angle_errors("convex_53", np.array([1.0, 1.0]), deltas)
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(0.25 <= r <= 0.75 for r in ratios), (errs, ratios)
    exact = _slice_angle_errors("quad_51", catalog("quad_51").x0, deltas)
    assert max(exact) <= 1e-8, exact


def test_criterion_09_slice_estimate_ascent_counterexample():
    p = catalog("counterexample")
    x = np.zeros(2)
    v = slice_centroid_direction(p.objective, x, delta=1e-2)
    assert angle_between(v, np.array([0.0, 1.0])) <= 1e-6
    assert float(p.objective.gradient(x) @ v) > 0.0


def test_criterion_10_angle_identity_along_all_trajectories():
    worst = 0.0
    for name in CATALOG_NAMES:
        report = yand_run(catalog(name), ExactSearch(), STOP)
        for rec in report.records:
            worst = max(worst,
                        abs(rec.cos_theta * np.sqrt(1.0 + rec.T**2) - 1.0))
    assert worst <= 1e-10, worst


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
        runs = [
            ("armijo", yand_run(p, armijo, STOP)),
            ("armijo", gradient_descent_run(p, armijo, STOP)),
            ("wolfe", yand_run(p, wolfe, STOP)),
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
                    assert f1 <= f0 + armijo.sigma * slope + 1e-12, (name,)
                else:
                    assert f1 <= f0 + wolfe.c1 * slope + 1e-12, (name,)
                    assert abs(float(g1 @ step)) <= (
                        wolfe.c2 * abs(slope) + 1e-12), (name,)
                checked += 1
    assert checked > 100


def test_criterion_12_scaled_iterates_map_onto_base_iterates():
    base = catalog("strongly_convex_base")
    tight = StoppingSpec(tol_grad=1e-12, max_iter=200)
    for gamma in (10.0, 1e2, 1e4):
        rep = run_invariance(base, np.diag([1.0, gamma]), ExactSearch(),
                             tight)
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
        rates = empirical_rates(report, x_star=p.x_star, f_star=p.f_star)
        last = rates.quad_ratios[-tail:]
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
        fr = build_gradient_frame(obj.gradient(x))
        m = obj.dim - 1
        Q, R = np.linalg.qr(rng.normal(size=(m, m)))
        Q = Q * np.sign(np.diag(R))
        basis = fr.basis.copy()
        basis[:, :m] = fr.tangent @ Q
        r0 = descent_direction(obj, x)
        r1 = _matrix_direction(obj, x, Frame(basis=basis,
                                             grad_norm=fr.grad_norm))
        assert r0.case == r1.case
        worst = max(worst, float(np.max(np.abs(r0.d - r1.d))))
        checked += 1
    assert worst <= 1e-9, worst
