import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import line_search
from affinedescent.line_search import (ALPHA_MAX, C1, C2, MAX_BACKTRACKS,
                                       MAX_EXACT_STEPS, SIGMA, ArmijoSearch,
                                       ExactSearch, FixedStep,
                                       LineSearchStatus, StrongWolfeSearch,
                                       armijo_backtrack, exact_search,
                                       strong_wolfe_search)


def recorded(fn, calls):
    """fn, appending each argument to calls."""
    def wrapper(a):
        calls.append(a)
        return fn(a)
    return wrapper


class TestSpecValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            FixedStep(alpha=0.0)
        # the searches run at the module's constants and take no parameter
        for search in (ExactSearch, ArmijoSearch, StrongWolfeSearch):
            with pytest.raises(TypeError):
                search(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_steps_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="^alpha must be finite and positive$"):
            FixedStep(alpha=bad)


# phi(a) from parameters (p, q, r): a quadratic, a tilted quartic, a
# quadratic walled off at +inf beyond a = q, and an oscillating ramp
PHI_FAMILIES = {
    "quadratic": lambda p, q, r, a: p * (a - q) ** 2 + r,
    "quartic": lambda p, q, r, a: p * (a - q) ** 4 + r * a,
    "walled": lambda p, q, r, a: math.inf if a > q else p * (a - r) ** 2,
    "oscillating": lambda p, q, r, a: math.sin(p * a) + q * math.cos(a)
    + r * a,
}


class TestExactSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PHI_FAMILIES)), st.floats(-50.0, 50.0),
           st.floats(-20.0, 20.0), st.floats(-10.0, 10.0))
    def test_result_is_the_least_value_seen(self, family, p, q, r):
        """The incumbent x is the best point evaluated, 0 included: the
        initial swap leaves fx <= min(phi(0), phi(U)), and a trial replaces
        it only with a value no larger."""
        values = {}

        def phi(a):
            values[a] = PHI_FAMILIES[family](p, q, r, a)
            return values[a]

        res = exact_search(phi)
        if res.status in (LineSearchStatus.ACCEPTED,
                          LineSearchStatus.MAX_EXACT_STEPS):
            assert res.f_new <= values[0.0]
            assert res.f_new == values[res.alpha]

    def test_quadratic_minimum_to_machine_precision(self):
        res = exact_search(lambda a: (a - 0.3) ** 2)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == pytest.approx(0.3, abs=1e-10)

    def test_tiny_quadratic_minimizer_resolved(self):
        # minimizer near 1e-4 of the span still found to ~1e-10
        t = 1.2345e-4
        res = exact_search(lambda a: (a - t) ** 2)
        assert res.alpha == pytest.approx(t, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 9.9))
    def test_random_quadratic_minimizers(self, t):
        res = exact_search(lambda a: 3.0 * (a - t) ** 2 - 1.0)
        assert res.alpha == pytest.approx(t, abs=1e-8)
        assert res.f_new == pytest.approx(-1.0, abs=1e-12)

    def test_increasing_phi_returns_zero(self):
        res = exact_search(lambda a: a * a + a)
        assert res.alpha == 0.0
        assert res.f_new == 0.0

    def test_upper_bound_shrinks_past_domain_wall(self):
        def phi(a):
            return np.inf if a > 0.5 else (a - 0.4) ** 2

        res = exact_search(phi)
        assert res.alpha == pytest.approx(0.4, abs=1e-8)

    def test_everything_infinite_reports_no_finite_step(self):
        calls = []
        res = exact_search(recorded(lambda a: np.inf if a > 0 else 0.0, calls))
        assert res.status is LineSearchStatus.NO_FINITE_STEP
        assert (res.alpha, res.f_new) == (0.0, 0.0)
        # phi(0), then ALPHA_MAX halved until it drops below 1e-16 of itself
        assert calls == [0.0] + [ALPHA_MAX * 0.5 ** k for k in range(54)]
        assert res.evals == len(calls)

    def test_infinite_origin_reports_no_finite_step(self):
        for f0 in (np.inf, np.nan):
            calls = []
            res = exact_search(recorded(lambda a: f0, calls))
            assert res.status is LineSearchStatus.NO_FINITE_STEP
            assert calls == [0.0] and res.evals == 1

    def test_nonsmooth_phi_still_bracketed(self):
        res = exact_search(lambda a: abs(a - 2.0))
        assert res.alpha == pytest.approx(2.0, abs=1e-8)

    def test_step_cap_reports_max_exact_steps(self, monkeypatch):
        # a zero tolerance is never met, so the loop runs to its cap
        monkeypatch.setattr(line_search, "EXACT_TOL", 0.0)
        res = exact_search(lambda a: (a - 0.3) ** 2)
        assert res.status is LineSearchStatus.MAX_EXACT_STEPS
        assert res.evals == 3 + MAX_EXACT_STEPS
        assert res.alpha == pytest.approx(0.3, abs=1e-10)


class TestArmijo:
    def test_full_step_accepted_on_well_scaled_quadratic(self):
        # phi = (a-1)^2 - 1: phi(1) = -1 <= 0 + sigma*1*(-2)
        res = armijo_backtrack(lambda a: (a - 1.0) ** 2 - 1.0, -2.0)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == 1.0
        assert res.f_new == -1.0

    def test_backtracks_to_half_on_overshoot(self):
        # phi = a^2 - a: phi(1) = 0 > sigma*(-1); phi(0.5) = -0.25 accepted
        res = armijo_backtrack(lambda a: a * a - a, -1.0)
        assert res.alpha == 0.5
        assert res.f_new == -0.25

    def test_accepts_first_alpha_meeting_inequality(self):
        # phi = a^2/2 - a: phi(1) = -0.5 accepted immediately
        res = armijo_backtrack(lambda a: 0.5 * a * a - a, -1.0)
        assert res.alpha == 1.0

    def test_infinite_values_are_backtracked_through(self):
        def phi(a):
            return np.inf if a > 0.3 else -a

        res = armijo_backtrack(phi, -1.0)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == 0.25

    def test_nondescent_slope_rejected(self):
        for dphi0 in (0.0, 1.0, np.nan):
            calls = []
            res = armijo_backtrack(recorded(lambda a: a, calls), dphi0)
            assert res.status is LineSearchStatus.NOT_DESCENT
            assert calls == [] and res.evals == 0
            assert res.alpha == 0.0 and math.isnan(res.f_new)

    def test_budget_exhaustion_reports_max_backtracks(self):
        res = armijo_backtrack(lambda a: a if a > 0 else 0.0, -1.0)
        assert res.status is LineSearchStatus.MAX_BACKTRACKS
        assert res.evals == MAX_BACKTRACKS + 2   # phi(0) plus every trial
        assert res.alpha == 0.5 ** MAX_BACKTRACKS   # the last trial

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.1, 5.0))
    def test_accepted_step_satisfies_inequality(self, curv, slope):
        phi = lambda a: 0.5 * curv * a * a - slope * a
        res = armijo_backtrack(phi, -slope)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.f_new <= 0.0 + SIGMA * res.alpha * (-slope) + 1e-15


class TestStrongWolfe:
    # (phi, dphi) for phi(a) = a^5/1280 - a: its slope at a = 1 and 2 is
    # steeper than C2 phi'(0) = -0.9, and 0 at its minimizer 4
    FLAT_TAIL = (lambda a: a ** 5 / 1280.0 - a, lambda a: a ** 4 / 256.0 - 1.0)

    def check(self, phi, dphi):
        res = strong_wolfe_search(phi, dphi)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.f_new <= phi(0.0) + C1 * res.alpha * dphi(0.0) + 1e-12
        assert abs(dphi(res.alpha)) <= -C2 * dphi(0.0) + 1e-12
        return res

    def test_quadratic_accepts_unit_step(self):
        res = self.check(lambda a: (a - 1.0) ** 2 - 1.0,
                         lambda a: 2.0 * (a - 1.0))
        assert res.alpha == 1.0

    def test_curvature_test_reads_c2(self):
        """phi(a) = -a + a^2/4 at a = 1 decreases enough, and |phi'(1)| =
        0.5 is within C2 = 0.9 of |phi'(0)| = 1 but not within C1 = 1e-4:
        the first trial is accepted, where a test that read C1 would go on
        to phi's minimizer at 2. For phi(a) = -a + a^2/20, |phi'(1)| = 0.9
        lies on the bound, which the curvature condition includes: a
        strict test, or a smaller C2, would go on to a = 2."""
        within = (lambda a: -a + 0.25 * a * a, lambda a: -1.0 + 0.5 * a)
        on_bound = (lambda a: -a + 0.05 * a * a, lambda a: -1.0 + 0.1 * a)
        # its slopes are exact: -1 at 0 and -0.9 at 1
        assert (on_bound[1](0.0), on_bound[1](1.0)) == (-1.0, -0.9)
        for phi, dphi in (within, on_bound):
            res = self.check(phi, dphi)
            assert (res.alpha, res.evals) == (1.0, 2)

    def test_narrow_quadratic_needs_zoom(self):
        # minimizer at 0.05: alpha=1 violates sufficient decrease
        res = self.check(lambda a: 100.0 * (a - 0.05) ** 2,
                         lambda a: 200.0 * (a - 0.05))
        assert 0.0 < res.alpha < 1.0

    def test_flat_tail_requires_expansion(self):
        # phi keeps decreasing past alpha=1, so the bracketing loop must
        # expand before any zoom
        res = self.check(*self.FLAT_TAIL)
        assert res.alpha > 1.0

    def test_expansion_doubles_the_trial_step(self):
        """On the same flat tail, each bracketing trial is twice the last:
        phi is called at 0, 1, 2 and 4, where the minimizer is accepted."""
        calls = []
        phi, dphi = self.FLAT_TAIL
        res = self.check(recorded(phi, calls), dphi)
        assert res.alpha == 4.0
        # the search's own calls; check evaluates phi(0) once more
        assert calls[:res.evals] == [0.0, 1.0, 2.0, 4.0]

    def test_domain_wall_is_bracketed_through(self):
        def phi(a):
            return np.inf if a >= 2.0 else (a - 1.0) ** 2 - 1.0

        def dphi(a):
            return 2.0 * (a - 1.0)

        calls = []
        res = self.check(recorded(phi, calls), dphi)
        assert res.alpha < 2.0
        # evals counts every call of the search; check makes one more
        assert len(calls) == res.evals + 1

    def test_nondescent_slope_rejected(self):
        for dphi0 in (0.0, 1.0, np.nan):
            calls, dcalls = [], []
            res = strong_wolfe_search(recorded(lambda a: a, calls),
                                      recorded(lambda a: dphi0, dcalls))
            assert res.status is LineSearchStatus.NOT_DESCENT
            assert calls == [] and dcalls == [0.0] and res.evals == 0
            assert res.alpha == 0.0 and math.isnan(res.f_new)

    def test_nan_start_value_fails_sufficient_decrease(self):
        # phi(0) = NaN gives no sufficient-decrease threshold, so no trial
        # is accepted however its slope looks
        res = strong_wolfe_search(lambda a: np.nan if a == 0.0 else -a,
                                  lambda a: -1.0 if a == 0.0 else 0.0)
        assert res.status is LineSearchStatus.ZOOM_FAILED
        assert res.alpha == 1.0 and math.isnan(res.f_new)

    def test_curvature_never_met_returns_best_decrease_point(self):
        # linear descent: |dphi| stays at 1, so the curvature condition is
        # unattainable and expansion runs out at ALPHA_MAX
        calls = []
        res = strong_wolfe_search(recorded(lambda a: -a, calls),
                                  lambda a: -1.0)
        assert res.status is LineSearchStatus.ZOOM_FAILED
        assert calls == [0.0, 1.0, 2.0, 4.0, 8.0, ALPHA_MAX]
        assert (res.alpha, res.f_new, res.evals) == (ALPHA_MAX, -ALPHA_MAX, 6)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.02, 8.0), st.floats(0.05, 10.0))
    def test_wolfe_pair_holds_on_random_quadratics(self, t, curv):
        phi = lambda a: 0.5 * curv * (a - t) ** 2
        dphi = lambda a: curv * (a - t)
        self.check(phi, dphi)
