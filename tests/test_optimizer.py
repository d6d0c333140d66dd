from dataclasses import replace

import numpy as np
import pytest
from helpers import (Recorder, bits, coupled_quartic, flat_valley,
                     nan_gradient_problem, nan_hessian_problem,
                     non_finite_third_problem, quadratic, ridge_objective,
                     rotated_quartic, spd_quadratic)

from affinedescent import line_search, optimizer
from affinedescent.direction import classify_point
from affinedescent.line_search import (ArmijoSearch, ExactSearch, FixedStep,
                                       LineSearchResult, LineSearchStatus,
                                       StrongWolfeSearch)
from affinedescent.numerics import DefinitenessTag
from affinedescent.objective import make_objective, verify_derivatives
from affinedescent.optimizer import (RunStatus, StoppingSpec,
                                     gradient_descent_run, newton_run,
                                     yand_run)
from affinedescent.problems import Problem, catalog, make_affine_scaled

STOP = StoppingSpec(tol_grad=1e-4, max_iter=200)


def flat_valley_problem():
    return Problem(name="flat_valley", objective=flat_valley(),
                   x0=np.array([3.0, 2.0]), x_star=None, f_star=None,
                   notes="")


def walled_bowl_problem():
    """f = x.x on the domain x0 >= 1, started on its wall at (1, 0): every
    descent direction leaves the domain at once."""
    obj = quadratic(2.0 * np.eye(2), in_domain=lambda x: x[0] >= 1.0)
    return Problem(name="walled_bowl", objective=obj,
                   x0=np.array([1.0, 0.0]), x_star=None, f_star=None,
                   notes="")


def overflowing_hessian_problem(dim):
    """f = x[-1] with the constant Hessian diag(1.5e308, 1, ...): finite,
    but its symmetrization 0.5 * (H + H^T) overflows."""
    H = np.diag([1.5e308] + [1.0] * (dim - 1))
    obj = make_objective(
        dim=dim,
        value=lambda x: float(x[-1]),
        gradient=lambda x: np.eye(dim)[-1],
        hessian=lambda x: H.copy(),
        third_directional=lambda x, u, v, w: 0.0,
    )
    return Problem(name="overflowing_hessian", objective=obj,
                   x0=np.zeros(dim), x_star=None, f_star=None, notes="")


def list_oracle_problem(name):
    """Catalog problem whose gradient and Hessian oracles return lists."""
    p = catalog(name)
    obj = p.objective
    return replace(p, objective=replace(
        obj, gradient=lambda x: obj.gradient(x).tolist(),
        hessian=lambda x: obj.hessian(x).tolist()))


def asymmetric_hessian_problem():
    """f = x^2 + 2 y^2 + x y / 2, whose Hessian oracle returns the
    asymmetric [[2, 1], [0, 4]]: its symmetric part is the true Hessian."""
    obj = make_objective(
        dim=2,
        value=lambda x: float(x[0] ** 2 + 2.0 * x[1] ** 2 + 0.5 * x[0] * x[1]),
        gradient=lambda x: np.array([2.0 * x[0] + 0.5 * x[1],
                                     4.0 * x[1] + 0.5 * x[0]]),
        hessian=lambda x: np.array([[2.0, 1.0], [0.0, 4.0]]),
        third_directional=lambda x, u, v, w: 0.0,
    )
    return Problem(name="asymmetric_hessian", objective=obj,
                   x0=np.array([1.0, -2.0]), x_star=np.zeros(2), f_star=0.0,
                   notes="")


class TestRecordConventions:
    def test_start_row_and_step_rows(self):
        rep = yand_run(catalog("quad_well"), ExactSearch(), STOP)
        r0 = rep.records[0]
        assert (r0.k, r0.alpha, r0.case, r0.T, r0.cos_theta) == \
            (0, 0.0, "-", 0.0, 1.0)
        assert np.array_equal(r0.x, catalog("quad_well").x0)
        r1 = rep.records[1]
        assert r1.k == 1 and r1.case == "AN" and r1.alpha > 0.0
        assert rep.iters == len(rep.records) - 1
        assert rep.final is rep.records[-1]

    def test_baseline_case_tags(self):
        assert gradient_descent_run(catalog("quad_well"), ExactSearch(),
                                    STOP).records[1].case == "GD"
        assert newton_run(catalog("quad_well"),
                          stop=STOP).records[1].case == "Newton"
        assert newton_run(catalog("rosenbrock"), damped=True,
                          stop=STOP).records[1].case == "DampedNewton"

    def test_max_T_leaves_out_a_step_never_taken(self):
        """The direction at x0 has T = 2.44, but its line search fails, so
        the run records no step."""
        p = catalog("rosenbrock")

        def value(x):
            return p.objective.value(x) if np.array_equal(x, p.x0) \
                else float("inf")

        rep = yand_run(replace(p, objective=replace(p.objective, value=value)),
                       ArmijoSearch(), STOP)
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.iters == 0 and len(rep.records) == 1
        assert max(r.T for r in rep.records) == 0.0

    @pytest.mark.parametrize("step", [FixedStep(alpha=0.1), ArmijoSearch()],
                             ids=["fixed", "armijo"])
    @pytest.mark.parametrize("run", [
        lambda p, step: yand_run(p, step, STOP),
        lambda p, step: gradient_descent_run(p, step, STOP),
        lambda p, step: newton_run(p, ls=step, stop=STOP),
    ], ids=["yand", "gd", "newton"])
    def test_records_own_their_arrays(self, run, step):
        """The loop records each iterate without a copy, so no record may
        share its x with another record or with the caller's start point."""
        p = catalog("convex_53")
        p = replace(p, x0=p.x0.copy())   # changed in place below
        rep = run(p, step)
        assert len(rep.records) >= 3
        xs = [r.x for r in rep.records]
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(xs) for b in xs[i + 1:])
        assert rep.records[0].x is not p.x0
        before = [r.x.tobytes() for r in rep.records]
        p.x0[:] = 99.0
        assert [r.x.tobytes() for r in rep.records] == before


class TestStatuses:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 5, 10, 20, 40])
    def test_one_exact_step_on_seeded_spd_quadratics(self, n, seed):
        """The paper's one-step claim beyond the 2-D catalog: f = x.Ax/2 +
        b.x with A = Q diag(U(0.5, 10)) Q^T, under the default stop."""
        rng = np.random.default_rng(1000 * n + seed)
        obj, A, b = spd_quadratic(rng, n)
        x_star = np.linalg.solve(A, -b)
        p = Problem(name=f"spd_quadratic_{n}", objective=obj,
                    x0=rng.normal(size=n), x_star=x_star, f_star=None,
                    notes="")
        rep = yand_run(p, ExactSearch())
        assert rep.status is RunStatus.CONVERGED
        assert rep.iters == 1 and rep.final.case == "AN"
        err = np.linalg.norm(rep.final.x - x_star)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(x_star)), err

    def test_start_at_minimum_converges_immediately(self):
        p = catalog("quad_well")
        start_at_min = Problem(name="at_min", objective=p.objective,
                               x0=p.x_star, x_star=p.x_star,
                               f_star=p.f_star, notes="")
        rep = yand_run(start_at_min, ExactSearch(), STOP)
        assert rep.status is RunStatus.CONVERGED
        assert rep.iters == 0 and len(rep.records) == 1

    def test_max_iter_reached_on_ill_scaled_fixed_step(self):
        problem, _ = make_affine_scaled(10.0)
        rep = gradient_descent_run(problem, FixedStep(alpha=0.01), STOP)
        assert rep.status is RunStatus.MAX_ITER_REACHED
        assert rep.iters == 200

    def test_degenerate_stop_on_singular_hessian(self):
        rep = newton_run(flat_valley_problem(), stop=STOP)
        assert rep.status is RunStatus.DEGENERATE_STOP

    def test_line_search_failure_on_fixed_step_through_wall(self):
        rep = gradient_descent_run(catalog("inverse_barrier"),
                                   FixedStep(alpha=100.0), STOP)
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE

    @pytest.mark.parametrize("run", [
        lambda p: yand_run(p, ExactSearch(), STOP),
        lambda p: yand_run(p, ArmijoSearch(), STOP),
        lambda p: gradient_descent_run(p, ExactSearch(), STOP),
        lambda p: gradient_descent_run(p, FixedStep(alpha=0.1), STOP),
        lambda p: newton_run(p, stop=STOP)],
        ids=["yand-exact", "yand-armijo", "gd-exact", "gd-fixed", "newton"])
    def test_non_finite_gradient_at_accepted_iterate(self, run):
        rep = run(nan_gradient_problem("quad_well"))
        assert rep.status is RunStatus.NON_FINITE_GRADIENT
        assert rep.iters == 1
        assert np.isnan(rep.final.grad_norm) and np.isfinite(rep.final.f)

    @pytest.mark.parametrize("run", [
        lambda p: yand_run(p, ExactSearch(), STOP),
        lambda p: yand_run(p, ArmijoSearch(), STOP),
        lambda p: newton_run(p, damped=True, stop=STOP),
        lambda p: newton_run(p, stop=STOP)],
        ids=["yand-exact", "yand-armijo", "dnewton", "newton"])
    def test_non_finite_hessian_at_accepted_iterate(self, run):
        rep = run(nan_hessian_problem("rosenbrock"))
        assert rep.status is RunStatus.NON_FINITE_HESSIAN
        assert rep.iters == 1 and len(rep.records) == 2
        assert np.isfinite(rep.final.f) and np.isfinite(rep.final.grad_norm)

    @pytest.mark.parametrize("run", [
        lambda p: yand_run(p, ExactSearch(), STOP),
        lambda p: gradient_descent_run(p, ExactSearch(), STOP)],
        ids=["yand", "gd"])
    def test_non_finite_gradient_at_start(self, run):
        rep = run(nan_gradient_problem("quad_well", at_start=True))
        assert rep.status is RunStatus.NON_FINITE_GRADIENT
        assert rep.iters == 0 and len(rep.records) == 1

    @pytest.mark.parametrize("run", [
        lambda p: yand_run(p, ExactSearch(), STOP),
        lambda p: gradient_descent_run(p, ExactSearch(), STOP)],
        ids=["yand", "gd"])
    def test_exact_search_stopped_by_a_wall_is_line_search_failure(self, run):
        rep = run(walled_bowl_problem())
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.iters == 0

    @pytest.mark.parametrize("run, dim", [
        (lambda p: yand_run(p, StrongWolfeSearch(), STOP), 2),
        (lambda p: yand_run(p, StrongWolfeSearch(), STOP), 3),
        (lambda p: newton_run(p, damped=True, stop=STOP), 2),
        (lambda p: newton_run(p, stop=STOP), 2)],
        ids=["yand-planar", "yand-matrix", "dnewton", "newton"])
    def test_overflowing_hessian_symmetrization(self, run, dim):
        with np.errstate(over="ignore"):   # numpy warns on the overflow
            rep = run(overflowing_hessian_problem(dim))
        assert rep.status is RunStatus.NON_FINITE_HESSIAN
        assert rep.iters == 0

    @pytest.mark.parametrize("third", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [2, 3], ids=["planar", "matrix"])
    @pytest.mark.parametrize("sign", [1.0, -1.0],
                             ids=["definite", "indefinite"])
    def test_non_finite_third_derivative(self, sign, dim, third):
        """Whether the tangent block is positive definite or indefinite,
        in the planar and the matrix path."""
        p = non_finite_third_problem(dim, sign, third)
        tag = classify_point(p.objective, p.x0).tag
        assert tag is (DefinitenessTag.POSITIVE_DEFINITE if sign > 0.0
                       else DefinitenessTag.OTHER_INDEFINITE)
        rep = yand_run(p, ExactSearch(), STOP)
        assert rep.status is RunStatus.NON_FINITE_THIRD
        assert rep.iters == 0 and len(rep.records) == 1

    @pytest.mark.parametrize("dim", [2, 4], ids=["planar", "matrix"])
    @pytest.mark.parametrize("sign", [1.0, -1.0],
                             ids=["definite", "indefinite"])
    def test_overflowing_third_derivative_correction(self, sign, dim):
        """A finite third derivative 1e308 at gradient norm 1e10: the
        right-hand side c - |g| s / (m + 2) overflows. (At dim 3 the trace
        s cancels on the indefinite tangent block diag(-1, 1).)"""
        p = non_finite_third_problem(dim, sign, 1e308)
        p = replace(p, x0=1e10 * p.x0)
        with np.errstate(over="ignore"):   # numpy warns on the overflow
            rep = yand_run(p, ExactSearch(), STOP)
        assert rep.status is RunStatus.NON_FINITE_THIRD
        assert rep.iters == 0 and len(rep.records) == 1

    def test_exhausted_exact_search_is_line_search_failure(self, monkeypatch):
        monkeypatch.setattr(line_search, "EXACT_TOL", 0.0)
        rep = yand_run(catalog("quad_well"), ExactSearch(), STOP)
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.iters == 0

    def test_outside_domain_start_rejected(self):
        p = catalog("inverse_barrier")
        bad = Problem(name="bad_start", objective=p.objective,
                      x0=np.array([2.0, 2.0]), x_star=None, f_star=None,
                      notes="")
        with pytest.raises(ValueError):
            yand_run(bad, ExactSearch(), STOP)


class TestStepRule:
    """A search's step is taken only when it ends Accepted at alpha > 0
    below f_k; a fixed step wherever f is finite."""

    @staticmethod
    def run_with_search_result(monkeypatch, alpha, df, status):
        """gradient_descent_run on quad_well whose exact search returns
        alpha and f(x0) + df with the given status."""
        p = catalog("quad_well")
        f0 = p.objective.value(p.x0)
        monkeypatch.setattr(optimizer, "exact_search",
                            lambda phi: LineSearchResult(
                                alpha, f0 + df, 1, status))
        return gradient_descent_run(p, ExactSearch(), STOP)

    FAILED = [s for s in LineSearchStatus if s is not LineSearchStatus.ACCEPTED]

    @pytest.mark.parametrize("alpha, df, status", [
        (0.0, -1.0, LineSearchStatus.ACCEPTED),
        (0.5, 0.0, LineSearchStatus.ACCEPTED),
        *[(0.5, -1.0, s) for s in FAILED]],
        ids=["accepted-at-zero", "accepted-not-below"]
        + [s.value for s in FAILED])
    def test_search_step_not_taken(self, monkeypatch, alpha, df, status):
        rep = self.run_with_search_result(monkeypatch, alpha, df, status)
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.iters == 0 and len(rep.records) == 1

    def test_search_step_taken(self, monkeypatch):
        rep = self.run_with_search_result(monkeypatch, 0.5, -1.0,
                                          LineSearchStatus.ACCEPTED)
        assert rep.records[1].alpha == 0.5
        assert rep.records[1].f == rep.records[0].f - 1.0

    def test_unsupported_step_spec_is_a_type_error(self):
        """A spec that is neither a search nor a fixed step is a caller's
        error, not a run status."""
        with pytest.raises(TypeError,
                           match="^unsupported line-search spec 'exact'$"):
            yand_run(catalog("quad_well"), "exact", STOP)

    def test_fixed_step_uphill_is_taken(self):
        """On quad_well, f = x.Ax/2 + b.x with A = diag(2, 8), a gradient
        step of 0.5 overshoots along the stiff axis: f rises at every
        step, and the run goes on."""
        p = catalog("quad_well")
        rep = gradient_descent_run(p, FixedStep(alpha=0.5),
                                   StoppingSpec(max_iter=2))
        assert rep.status is RunStatus.MAX_ITER_REACHED
        assert rep.iters == 2
        f = [r.f for r in rep.records]
        assert f[0] < f[1] < f[2]
        assert f[1] == p.objective.value(rep.records[1].x)


class TestConvergence:
    def test_damped_newton_on_nonconvex(self):
        for name in ("rosenbrock", "ring_tilted", "four_well"):
            rep = newton_run(catalog(name), damped=True, stop=STOP)
            assert rep.status is RunStatus.CONVERGED, name

    def test_classical_newton_on_rosenbrock(self):
        rep = newton_run(catalog("rosenbrock"), stop=STOP)
        assert rep.status is RunStatus.CONVERGED
        assert {r.alpha for r in rep.records[1:]} == {1.0}

    def test_undamped_newton_takes_the_given_search(self):
        """A given ls is never replaced: Armijo backtracks from the unit
        step on Rosenbrock."""
        rep = newton_run(catalog("rosenbrock"), ls=ArmijoSearch(), stop=STOP)
        assert rep.status is RunStatus.CONVERGED
        assert any(r.alpha != 1.0 for r in rep.records[1:])

    @pytest.mark.parametrize("run", [
        lambda p: newton_run(p, stop=STOP),
        lambda p: newton_run(p, damped=True, stop=STOP),
        lambda p: yand_run(p, ExactSearch(), STOP)],
        ids=["newton", "dnewton", "yand"])
    def test_asymmetric_hessian_oracle_is_symmetrized(self, run):
        """Newton solves with the symmetric part of the oracle's Hessian, as
        the direction classifies the symmetric part of its tangent block:
        classify_symmetric takes that part of any square matrix."""
        rep = run(asymmetric_hessian_problem())
        assert rep.status is RunStatus.CONVERGED
        assert np.linalg.norm(rep.final.x) <= 1e-4

    def test_gd_exact_converges_on_scaled_quadratics(self):
        for gamma in (10.0, 1e4):
            problem, _ = make_affine_scaled(gamma)
            rep = gradient_descent_run(problem, ExactSearch(), STOP)
            assert rep.status is RunStatus.CONVERGED
            assert rep.iters <= 10

    @pytest.mark.parametrize("ls", [StrongWolfeSearch(), ArmijoSearch()],
                             ids=["wolfe", "armijo"])
    def test_a_gradient_below_the_square_range_keeps_its_norm(self, ls):
        """At gamma 1e4 the search from the 11th iterate finds no step; its
        gradient norm 6.47e-165 lies where g.g underflows, so an unscaled
        norm would read 0 and stop the run as Converged."""
        problem, _ = make_affine_scaled(1e4)
        rep = yand_run(problem, ls, StoppingSpec(tol_grad=1e-300))
        assert rep.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.iters == 11
        assert rep.records[-1].grad_norm == 6.469079379123512e-165


def convex_quartic_problem(dim, seed):
    """f = x.Qx/2 + sum_i c_i x_i^4/4 with Q = MM^T/dim + I positive
    definite, the ridge sum over the rows of [M^T/sqrt(dim); I]: strictly
    convex, with its minimum f = 0 at the origin."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    q = np.concatenate([np.zeros(dim), rng.uniform(0.5, 2.0, dim)])
    obj = ridge_objective(np.vstack([M.T / np.sqrt(dim), np.eye(dim)]), (
        lambda r: 0.5 * r ** 2 + 0.25 * q * r ** 4,
        lambda r: r + q * r ** 3,
        lambda r: 1.0 + 3.0 * q * r ** 2,
        lambda r: 6.0 * q * r))
    return Problem(name=f"convex_quartic_{dim}", objective=obj,
                   x0=rng.standard_normal(dim), x_star=np.zeros(dim),
                   f_star=0.0, notes="")


class TestOracleCalls:
    @pytest.mark.parametrize("problem, ls, per_iterate", [
        (convex_quartic_problem(6, seed=3), ExactSearch(), 1),
        (convex_quartic_problem(6, seed=3), ArmijoSearch(), 1),
        # the planar path's two calls at x, which it keeps until
        # catalog2d's golden gradient count is re-recorded
        (catalog("rosenbrock"), ExactSearch(), 3)],
        ids=["n6-exact", "n6-armijo", "rosenbrock-exact"])
    def test_yand_gradients_per_iterate(self, problem, ls, per_iterate):
        """One gradient at the start, then per iterate one at the accepted
        point, which the loop hands to the direction. Neither search reads
        a gradient: the exact search reads values only and Armijo takes
        g.d from the loop's gradient."""
        rec = Recorder(problem.objective)
        rep = yand_run(replace(problem, objective=rec.obj), ls, STOP)
        assert rep.status is RunStatus.CONVERGED
        assert rep.iters >= 3
        assert len(rec.of("gradient")) == 1 + per_iterate * rep.iters
        assert len(rec.of("hessian")) == rep.iters


class TestEmpiricalRates:
    def test_linear_ratio_of_fixed_step_on_isotropic_bowl(self):
        problem, _ = make_affine_scaled(1.0)
        rep = gradient_descent_run(problem, FixedStep(alpha=0.5),
                                   StoppingSpec(tol_grad=1e-10, max_iter=60))
        fs = [r.f for r in rep.records]
        # contraction (1 - alpha)^2 = 0.25 per step in f, whose minimum is 0
        for f0, f1 in zip(fs[:-2], fs[1:-1]):
            assert f1 / f0 == pytest.approx(0.25, rel=1e-6)


class TestListOracles:
    """descent_direction accepts oracles that return lists; so do the runs
    and the FD check, with the results of their ndarray twins."""

    @pytest.mark.parametrize("step", [
        ExactSearch(), ArmijoSearch(), StrongWolfeSearch(), FixedStep(1.0)],
        ids=["exact", "armijo", "wolfe", "fixed1"])
    @pytest.mark.parametrize("run", [
        lambda p, step: yand_run(p, step, STOP),
        lambda p, step: gradient_descent_run(p, step, STOP),
        lambda p, step: newton_run(p, ls=step, stop=STOP),
    ], ids=["yand", "gd", "newton"])
    @pytest.mark.parametrize("name", ["rosenbrock", "quad_52"])
    def test_runs(self, name, run, step):
        # unit gradient steps on Rosenbrock overflow
        with np.errstate(over="ignore", invalid="ignore"):
            want = run(catalog(name), step)
            got = run(list_oracle_problem(name), step)
        assert bits(got) == bits(want)

    @pytest.mark.parametrize("name", ["rosenbrock", "quad_52"])
    def test_verify_derivatives(self, name):
        p = catalog(name)
        points = [p.x0, p.x0 + 0.25]
        want = verify_derivatives(p.objective, points,
                                  rng=np.random.default_rng(3))
        got = verify_derivatives(list_oracle_problem(name).objective, points,
                                 rng=np.random.default_rng(3))
        assert bits(got) == bits(want)


class TestStoppingSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingSpec(tol_grad=0.0)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError,
                               match="^tol_grad must be finite and positive$"):
                StoppingSpec(tol_grad=bad)
        with pytest.raises(ValueError):
            StoppingSpec(max_iter=0)
        # NaN would never stop the loop
        for bad in (np.nan, np.inf, 2.5):
            with pytest.raises(ValueError,
                               match="^max_iter must be a positive integer$"):
                StoppingSpec(max_iter=bad)
        assert StoppingSpec(max_iter=np.int64(3)).max_iter == 3


def pl_problem(x0, Q=None):
    """f = y_1^2 + 3 sin^2 y_1 + |y_2..y_n|^2 with y = Q x (default I):
    Polyak-Lojasiewicz but not convex (Karimi, Nutini & Schmidt,
    ECML-PKDD 2016), with its minimum f = 0 at the origin."""
    x0 = np.array(x0, dtype=float)
    s = np.eye(x0.size)[0]             # the one ridge with the sine
    obj = ridge_objective(np.eye(x0.size) if Q is None else Q, (
        lambda r: r ** 2 + 3.0 * s * np.sin(r) ** 2,
        lambda r: 2.0 * r + 3.0 * s * np.sin(2.0 * r),
        lambda r: 2.0 + 6.0 * s * np.cos(2.0 * r),
        lambda r: -12.0 * s * np.sin(2.0 * r)))
    return Problem(name="pl_sin", objective=obj, x0=x0,
                   x_star=np.zeros(x0.size), f_star=0.0, notes="")


class TestPolyakLojasiewicz:
    """The paper's claim of linear convergence under the PL condition,
    without convexity."""

    STARTS = [(3.0, 1.0), (-2.5, 0.5), (1.2, -2.0), (4.0, 3.0)]
    SEARCHES = pytest.mark.parametrize(
        "ls", [ExactSearch(), ArmijoSearch(), StrongWolfeSearch()],
        ids=["exact", "armijo", "wolfe"])

    def test_not_convex(self):
        p = pl_problem((1.2, -2.0))
        assert p.objective.hessian(p.x0)[0, 0] < 0.0

    @SEARCHES
    @pytest.mark.parametrize("x0", STARTS)
    def test_linear_decrease_to_convergence(self, x0, ls):
        rep = yand_run(pl_problem(x0), ls, StoppingSpec())
        assert rep.status is RunStatus.CONVERGED
        assert rep.iters <= 12
        fs = [r.f for r in rep.records]
        assert all(f1 / f0 <= 0.97 for f0, f1 in zip(fs, fs[1:]))

    @SEARCHES
    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_linear_rate_in_n_dimensions(self, n, ls):
        """The problem under a seeded rotation, from a seeded start in
        [-4, 4]^n: f falls at every step, at a mean rate of at most 0.5
        up to the last step. A single Armijo step may keep 0.998 of f."""
        rng = np.random.default_rng(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rep = yand_run(pl_problem(rng.uniform(-4.0, 4.0, n), Q), ls,
                       StoppingSpec())
        assert rep.status is RunStatus.CONVERGED
        K = rep.iters
        assert 2 <= K <= 12
        fs = [r.f for r in rep.records]
        assert all(f1 < f0 for f0, f1 in zip(fs, fs[1:]))
        assert (fs[K - 1] / fs[0]) ** (1.0 / (K - 1)) <= 0.5


def ridge_families():
    """Each family that ridge_objective builds, at seeded points, and
    whether its derivatives are right."""
    out = []
    for n in range(2, 11):
        rng = np.random.default_rng(n)
        out += [pytest.param(rotated_quartic(n, n), rng.normal(size=(3, n)),
                             True, id=f"rotated-n{n}"),
                pytest.param(coupled_quartic(rng.normal(size=n),
                                             rng.uniform(-2.0, 2.0, n)),
                             rng.normal(size=(3, n)), True,
                             id=f"coupled-n{n}")]
    convex = convex_quartic_problem(6, seed=3)
    rq3 = rotated_quartic(3, 3)
    rng = np.random.default_rng(3)
    return out + [
        pytest.param(convex.objective, [convex.x0, -2.0 * convex.x0], True,
                     id="convex-n6"),
        pytest.param(pl_problem(TestPolyakLojasiewicz.STARTS[0]).objective,
                     TestPolyakLojasiewicz.STARTS, True, id="pl"),
        # phi''' scaled by 1.01, which scales D3f by 1.01
        pytest.param(replace(rq3, third_directional=lambda x, u, v, w:
                             1.01 * rq3.third_directional(x, u, v, w)),
                     rng.normal(size=(3, 3)), False, id="rotated-n3-wrong")]


@pytest.mark.parametrize("obj, points, ok", ridge_families())
def test_ridge_family_derivatives(obj, points, ok):
    """Each family's derivatives are checked once, here, and a wrong third
    derivative fails the check. The third derivative has the same bits
    for strided u, v, w (as a frame's columns are) as for contiguous
    copies."""
    assert verify_derivatives(obj, points,
                              rng=np.random.default_rng(0)).ok is ok
    U = np.random.default_rng(1).standard_normal((obj.dim, 3))
    for x in points:
        x = np.asarray(x, dtype=float)
        assert bits(obj.third_directional(x, *U.T)) == bits(
            obj.third_directional(x, *np.ascontiguousarray(U.T)))
