from dataclasses import replace
from math import cos, sin

import numpy as np
import pytest
from helpers import (Recorder, flat_valley, nan_gradient_problem,
                     nan_hessian_problem, non_finite_third_problem,
                     spd_quadratic)
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import line_search, optimizer
from affinedescent.direction import classify_point
from affinedescent.line_search import (ArmijoSearch, ExactSearch, FixedStep,
                                       LineSearchResult, LineSearchStatus,
                                       StrongWolfeSearch)
from affinedescent.numerics import DefinitenessTag
from affinedescent.objective import make_objective, verify_derivatives
from affinedescent.optimizer import (RunStatus, StoppingSpec,
                                     empirical_rates, gradient_descent_run,
                                     newton_run, yand_run)
from affinedescent.problems import Problem, catalog, make_affine_scaled

STOP = StoppingSpec(tol_grad=1e-4, max_iter=200)


def flat_valley_problem():
    return Problem(name="flat_valley", objective=flat_valley(),
                   x0=np.array([3.0, 2.0]), x_star=None, f_star=None,
                   notes="")


def walled_bowl_problem():
    """f = x.x on the domain x0 >= 1, started on its wall at (1, 0): every
    descent direction leaves the domain at once."""
    obj = make_objective(
        dim=2,
        value=lambda x: float(x @ x),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: 2.0 * np.eye(2),
        third_directional=lambda x, u, v, w: 0.0,
        in_domain=lambda x: x[0] >= 1.0,
    )
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


def report_bits(rep):
    return rep.status, [(r.k, r.x.tobytes(), r.f, r.grad_norm, r.alpha,
                         r.case, r.T) for r in rep.records]


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
    def test_one_step_convergence_on_quadratics(self):
        for name in ("quad_well", "quad_51", "quad_52"):
            rep = yand_run(catalog(name), ExactSearch(), STOP)
            assert rep.status is RunStatus.CONVERGED
            assert rep.iters == 1

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
                            lambda phi, spec: LineSearchResult(
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
    """f = x.Qx/2 + sum_i c_i x_i^4/4 with Q positive definite: strictly
    convex, with its minimum f = 0 at the origin."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    Q = M @ M.T / dim + np.eye(dim)
    c = rng.uniform(0.5, 2.0, dim)
    obj = make_objective(
        dim=dim,
        value=lambda x: float(0.5 * x @ Q @ x + 0.25 * np.sum(c * x ** 4)),
        gradient=lambda x: Q @ x + c * x ** 3,
        hessian=lambda x: Q + np.diag(3.0 * c * x * x),
        third_directional=lambda x, u, v, w: float(
            np.sum(6.0 * c * x * u * v * w)),
    )
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


def _posthoc_armijo(problem, rep, sigma):
    obj = problem.objective
    for r0, r1 in zip(rep.records, rep.records[1:]):
        step = r1.x - r0.x
        g0 = obj.gradient(r0.x)
        assert r1.f <= r0.f + sigma * float(g0 @ step) + 1e-12


def _posthoc_wolfe(problem, rep, c1, c2):
    obj = problem.objective
    for r0, r1 in zip(rep.records, rep.records[1:]):
        step = r1.x - r0.x
        d0 = float(obj.gradient(r0.x) @ step)
        d1 = float(obj.gradient(r1.x) @ step)
        assert r1.f <= r0.f + c1 * d0 + 1e-12
        assert abs(d1) <= -c2 * d0 + 1e-12


class TestLineSearchContracts:
    PROBLEMS = ["quad_well", "convex_53", "poly6", "inverse_barrier",
                "rosenbrock", "ring_tilted", "saddle_poly", "four_well",
                "strongly_convex_base"]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_armijo_inequality_post_hoc(self, name):
        p = catalog(name)
        spec = ArmijoSearch()
        rep = yand_run(p, spec, STOP)
        assert rep.status is RunStatus.CONVERGED
        _posthoc_armijo(p, rep, spec.sigma)

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_wolfe_inequalities_post_hoc(self, name):
        p = catalog(name)
        spec = StrongWolfeSearch()
        rep = yand_run(p, spec, STOP)
        assert rep.status is RunStatus.CONVERGED
        _posthoc_wolfe(p, rep, spec.c1, spec.c2)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(PROBLEMS),
           st.sampled_from(["exact", "armijo", "wolfe"]),
           st.sampled_from(["yand", "gd", "dnewton"]))
    def test_objective_strictly_decreases(self, name, ls_name, method):
        ls = {"exact": ExactSearch(), "armijo": ArmijoSearch(),
              "wolfe": StrongWolfeSearch()}[ls_name]
        p = catalog(name)
        if method == "yand":
            rep = yand_run(p, ls, STOP)
        elif method == "gd":
            rep = gradient_descent_run(p, ls, STOP)
        else:
            rep = newton_run(p, damped=True, ls=ls, stop=STOP)
        fs = [r.f for r in rep.records]
        assert all(f1 < f0 for f0, f1 in zip(fs, fs[1:]))


class TestEmpiricalRates:
    def test_requires_a_reference(self):
        rep = yand_run(catalog("quad_well"), ExactSearch(), STOP)
        with pytest.raises(ValueError, match="needs x_star or f_star"):
            empirical_rates(rep)

    def test_linear_ratio_of_fixed_step_on_isotropic_bowl(self):
        problem, _ = make_affine_scaled(1.0)
        rep = gradient_descent_run(problem, FixedStep(alpha=0.5),
                                   StoppingSpec(tol_grad=1e-10, max_iter=60))
        rates = empirical_rates(rep, f_star=0.0)
        # contraction (1 - alpha)^2 = 0.25 per step in f
        for ratio in rates.linear_ratios[:-1]:
            assert ratio == pytest.approx(0.25, rel=1e-6)

    def test_quadratic_ratio_bounded_for_newton_like_steps(self):
        p = catalog("quad_well")
        rep = yand_run(p, ArmijoSearch(), STOP)
        rates = empirical_rates(rep, x_star=p.x_star, f_star=p.f_star)
        assert all(np.isfinite(q) and q <= 1e3 for q in rates.quad_ratios)

    def test_vanishing_denominator_reports_inf(self):
        p = catalog("quad_well")
        start_at_min = Problem(name="at_min", objective=p.objective,
                               x0=p.x_star, x_star=p.x_star, f_star=p.f_star,
                               notes="")
        rep = yand_run(start_at_min, ExactSearch(), STOP)
        rates = empirical_rates(rep, x_star=p.x_star, f_star=p.f_star)
        assert rates.linear_ratios == [] and rates.quad_ratios == []


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
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("name", ["rosenbrock", "quad_52"])
    def test_verify_derivatives(self, name):
        p = catalog(name)
        points = [p.x0, p.x0 + 0.25]
        want = verify_derivatives(p.objective, points,
                                  rng=np.random.default_rng(3))
        got = verify_derivatives(list_oracle_problem(name).objective, points,
                                 rng=np.random.default_rng(3))
        assert got == want


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


def pl_problem(x0):
    """f(x, y) = x^2 + 3 sin^2 x + y^2, which satisfies the
    Polyak-Lojasiewicz inequality but is not convex (Karimi, Nutini &
    Schmidt, ECML-PKDD 2016); its minimum is f = 0 at the origin."""
    obj = make_objective(
        dim=2,
        value=lambda x: float(x[0] ** 2 + 3.0 * sin(x[0]) ** 2 + x[1] ** 2),
        gradient=lambda x: np.array([2.0 * x[0] + 3.0 * sin(2.0 * x[0]),
                                     2.0 * x[1]]),
        hessian=lambda x: np.diag([2.0 + 6.0 * cos(2.0 * x[0]), 2.0]),
        third_directional=lambda x, u, v, w:
            -12.0 * sin(2.0 * x[0]) * u[0] * v[0] * w[0],
    )
    return Problem(name="pl_sin", objective=obj, x0=np.array(x0, dtype=float),
                   x_star=np.zeros(2), f_star=0.0, notes="")


class TestPolyakLojasiewicz:
    """The paper's claim of linear convergence under the PL condition,
    without convexity."""

    STARTS = [(3.0, 1.0), (-2.5, 0.5), (1.2, -2.0), (4.0, 3.0)]

    def test_helper_derivatives_and_nonconvexity(self):
        p = pl_problem((1.2, -2.0))
        assert verify_derivatives(p.objective, [np.array(s)
                                                for s in self.STARTS]).ok
        assert p.objective.hessian(p.x0)[0, 0] < 0.0

    @pytest.mark.parametrize("ls", [ExactSearch(), ArmijoSearch(),
                                    StrongWolfeSearch()],
                             ids=["exact", "armijo", "wolfe"])
    @pytest.mark.parametrize("x0", STARTS)
    def test_linear_decrease_to_convergence(self, x0, ls):
        rep = yand_run(pl_problem(x0), ls, StoppingSpec())
        assert rep.status is RunStatus.CONVERGED
        assert rep.iters <= 12
        fs = [r.f for r in rep.records]
        assert all(f1 / f0 <= 0.97 for f0, f1 in zip(fs, fs[1:]))
