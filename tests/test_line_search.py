import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import line_search
from affinedescent.line_search import (MAX_BACKTRACKS, MAX_EXACT_STEPS,
                                       ArmijoSearch,
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
            ExactSearch(alpha_max=0.0)
        with pytest.raises(ValueError):
            ArmijoSearch(sigma=0.0)
        with pytest.raises(ValueError):
            ArmijoSearch(beta=1.0)
        with pytest.raises(ValueError):
            ArmijoSearch(alpha0=0.0)
        with pytest.raises(ValueError):
            StrongWolfeSearch(c1=0.5, c2=0.4)
        with pytest.raises(ValueError):
            StrongWolfeSearch(c1=0.0)
        with pytest.raises(ValueError):
            FixedStep(alpha=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_steps_rejected(self, bad):
        for name, make in (("alpha_max", lambda v: ExactSearch(alpha_max=v)),
                           ("alpha0", lambda v: ArmijoSearch(alpha0=v)),
                           ("alpha0", lambda v: StrongWolfeSearch(alpha0=v)),
                           ("alpha_max",
                            lambda v: StrongWolfeSearch(alpha_max=v)),
                           ("alpha", lambda v: FixedStep(alpha=v))):
            with pytest.raises(ValueError,
                               match=f"^{name} must be finite and positive$"):
                make(bad)


class TestExactSearch:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_alpha_max_raises(self, bad):
        # A NaN or infinite bound never halves below 1e-16 of itself; the
        # bounded phi turns a regression into a failure, not a hang.
        calls = []

        def phi(a):
            calls.append(a)
            if len(calls) > 10_000:
                raise RuntimeError("exact search did not stop")
            return math.inf

        with pytest.raises(ValueError,
                           match="^alpha_max must be finite and positive$"):
            exact_search(phi, alpha_max=bad)
        assert calls == []

    def test_quadratic_minimum_to_machine_precision(self):
        res = exact_search(lambda a: (a - 0.3) ** 2, alpha_max=10.0)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == pytest.approx(0.3, abs=1e-10)

    def test_tiny_quadratic_minimizer_resolved(self):
        # minimizer near 1e-4 of the span still found to ~1e-10
        t = 1.2345e-4
        res = exact_search(lambda a: (a - t) ** 2, alpha_max=10.0)
        assert res.alpha == pytest.approx(t, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 9.9))
    def test_random_quadratic_minimizers(self, t):
        res = exact_search(lambda a: 3.0 * (a - t) ** 2 - 1.0, alpha_max=10.0)
        assert res.alpha == pytest.approx(t, abs=1e-8)
        assert res.f_new == pytest.approx(-1.0, abs=1e-12)

    def test_increasing_phi_returns_zero(self):
        res = exact_search(lambda a: a * a + a, alpha_max=10.0)
        assert res.alpha == 0.0
        assert res.f_new == 0.0

    def test_upper_bound_shrinks_past_domain_wall(self):
        def phi(a):
            return np.inf if a > 0.5 else (a - 0.4) ** 2

        res = exact_search(phi, alpha_max=10.0)
        assert res.alpha == pytest.approx(0.4, abs=1e-8)

    def test_everything_infinite_reports_no_finite_step(self):
        calls = []
        res = exact_search(recorded(lambda a: np.inf if a > 0 else 0.0, calls),
                           alpha_max=10.0)
        assert res.status is LineSearchStatus.NO_FINITE_STEP
        assert (res.alpha, res.f_new) == (0.0, 0.0)
        # phi(0), then alpha_max halved until it drops below 1e-16 of itself
        assert calls == [0.0] + [10.0 * 0.5 ** k for k in range(54)]
        assert res.evals == len(calls)

    def test_infinite_origin_reports_no_finite_step(self):
        for f0 in (np.inf, np.nan):
            calls = []
            res = exact_search(recorded(lambda a: f0, calls), alpha_max=1.0)
            assert res.status is LineSearchStatus.NO_FINITE_STEP
            assert calls == [0.0] and res.evals == 1

    def test_nonsmooth_phi_still_bracketed(self):
        res = exact_search(lambda a: abs(a - 2.0), alpha_max=10.0)
        assert res.alpha == pytest.approx(2.0, abs=1e-8)

    def test_step_cap_reports_max_exact_steps(self, monkeypatch):
        # a zero tolerance is never met, so the loop runs to its cap
        monkeypatch.setattr(line_search, "EXACT_TOL", 0.0)
        res = exact_search(lambda a: (a - 0.3) ** 2, alpha_max=10.0)
        assert res.status is LineSearchStatus.MAX_EXACT_STEPS
        assert res.evals == 3 + MAX_EXACT_STEPS
        assert res.alpha == pytest.approx(0.3, abs=1e-10)


class TestArmijo:
    def test_full_step_accepted_on_well_scaled_quadratic(self):
        # phi = (a-1)^2 - 1: phi(1) = -1 <= 0 + sigma*1*(-2)
        res = armijo_backtrack(lambda a: (a - 1.0) ** 2 - 1.0, -2.0,
                               ArmijoSearch())
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == 1.0
        assert res.f_new == -1.0

    def test_backtracks_to_half_on_overshoot(self):
        # phi = a^2 - a: phi(1) = 0 > sigma*(-1); phi(0.5) = -0.25 accepted
        res = armijo_backtrack(lambda a: a * a - a, -1.0, ArmijoSearch())
        assert res.alpha == 0.5
        assert res.f_new == -0.25

    def test_accepts_first_alpha_meeting_inequality(self):
        # phi = a^2/2 - a: phi(1) = -0.5 accepted immediately
        res = armijo_backtrack(lambda a: 0.5 * a * a - a, -1.0, ArmijoSearch())
        assert res.alpha == 1.0

    def test_infinite_values_are_backtracked_through(self):
        def phi(a):
            return np.inf if a > 0.3 else -a

        res = armijo_backtrack(phi, -1.0, ArmijoSearch())
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.alpha == 0.25

    def test_nondescent_slope_rejected(self):
        for dphi0 in (0.0, 1.0, np.nan):
            calls = []
            res = armijo_backtrack(recorded(lambda a: a, calls), dphi0,
                                   ArmijoSearch())
            assert res.status is LineSearchStatus.NOT_DESCENT
            assert calls == [] and res.evals == 0
            assert res.alpha == 0.0 and math.isnan(res.f_new)

    def test_budget_exhaustion_reports_max_backtracks(self):
        res = armijo_backtrack(lambda a: a if a > 0 else 0.0, -1.0,
                               ArmijoSearch())
        assert res.status is LineSearchStatus.MAX_BACKTRACKS
        assert res.evals == MAX_BACKTRACKS + 2   # phi(0) plus every trial

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.1, 5.0))
    def test_accepted_step_satisfies_inequality(self, curv, slope):
        phi = lambda a: 0.5 * curv * a * a - slope * a
        spec = ArmijoSearch()
        res = armijo_backtrack(phi, -slope, spec)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.f_new <= 0.0 + spec.sigma * res.alpha * (-slope) + 1e-15


class TestStrongWolfe:
    def check(self, phi, dphi, spec=None):
        spec = spec or StrongWolfeSearch()
        res = strong_wolfe_search(phi, dphi, spec)
        assert res.status is LineSearchStatus.ACCEPTED
        assert res.f_new <= phi(0.0) + spec.c1 * res.alpha * dphi(0.0) + 1e-12
        assert abs(dphi(res.alpha)) <= -spec.c2 * dphi(0.0) + 1e-12
        return res

    def test_quadratic_accepts_unit_step(self):
        res = self.check(lambda a: (a - 1.0) ** 2 - 1.0,
                         lambda a: 2.0 * (a - 1.0))
        assert res.alpha == 1.0

    def test_narrow_quadratic_needs_zoom(self):
        # minimizer at 0.05: alpha=1 violates sufficient decrease
        res = self.check(lambda a: 100.0 * (a - 0.05) ** 2,
                         lambda a: 200.0 * (a - 0.05))
        assert 0.0 < res.alpha < 1.0

    def test_flat_tail_requires_expansion(self):
        # minimizer at 4: phi keeps decreasing past alpha=1, so the
        # bracketing loop must expand before any zoom
        res = self.check(lambda a: (a - 4.0) ** 2, lambda a: 2.0 * (a - 4.0),
                         StrongWolfeSearch(c2=0.1))
        assert res.alpha > 1.0

    def test_domain_wall_is_bracketed_through(self):
        def phi(a):
            return np.inf if a >= 2.0 else (a - 1.0) ** 2 - 1.0

        def dphi(a):
            return 2.0 * (a - 1.0)

        res = self.check(phi, dphi)
        assert res.alpha < 2.0

    def test_nondescent_slope_rejected(self):
        for dphi0 in (0.0, 1.0, np.nan):
            calls, dcalls = [], []
            res = strong_wolfe_search(recorded(lambda a: a, calls),
                                      recorded(lambda a: dphi0, dcalls),
                                      StrongWolfeSearch())
            assert res.status is LineSearchStatus.NOT_DESCENT
            assert calls == [] and dcalls == [0.0] and res.evals == 0
            assert res.alpha == 0.0 and math.isnan(res.f_new)

    def test_nan_start_value_fails_sufficient_decrease(self):
        # phi(0) = NaN gives no sufficient-decrease threshold, so no trial
        # is accepted however its slope looks
        res = strong_wolfe_search(lambda a: np.nan if a == 0.0 else -a,
                                  lambda a: -1.0 if a == 0.0 else 0.0,
                                  StrongWolfeSearch())
        assert res.status is LineSearchStatus.ZOOM_FAILED
        assert res.alpha == 1.0 and math.isnan(res.f_new)

    def test_curvature_never_met_returns_best_decrease_point(self):
        # linear descent: |dphi| stays at 1, so the curvature condition is
        # unattainable and expansion runs out at alpha_max
        res = strong_wolfe_search(lambda a: -a, lambda a: -1.0,
                                  StrongWolfeSearch(alpha_max=1.0))
        assert res.status is LineSearchStatus.ZOOM_FAILED
        assert res.alpha == 1.0
        assert res.f_new == -1.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.02, 8.0), st.floats(0.05, 10.0))
    def test_wolfe_pair_holds_on_random_quadratics(self, t, curv):
        phi = lambda a: 0.5 * curv * (a - t) ** 2
        dphi = lambda a: curv * (a - t)
        self.check(phi, dphi)

