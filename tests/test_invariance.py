import re
import warnings

import numpy as np
import pytest
from helpers import (bits, direction_covariance_angle, random_gl_plus,
                     rotated_quartic)
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent.direction import (DirectionCase, block_decompose,
                                     descent_direction)
from affinedescent.invariance import compose_scaled, run_invariance
from affinedescent.line_search import ExactSearch
from affinedescent.objective import verify_derivatives
from affinedescent.optimizer import RunStatus
from affinedescent.problems import CATALOG_NAMES, Problem, catalog

BASE = catalog("strongly_convex_base")


class TestComposeScaled:
    def test_values_and_derivatives_compose(self):
        B = np.array([[2.0, 1.0], [0.5, 3.0]])
        scaled = compose_scaled(BASE, B)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=2)
            y = B @ x
            assert scaled.objective.value(x) == pytest.approx(
                BASE.objective.value(y), rel=1e-12)
            assert np.allclose(scaled.objective.gradient(x),
                               B.T @ BASE.objective.gradient(y), rtol=1e-12)
            assert np.allclose(scaled.objective.hessian(x),
                               B.T @ BASE.objective.hessian(y) @ B,
                               rtol=1e-12)

    def test_composed_derivatives_pass_fd_check(self):
        B = np.diag([1.0, 50.0])
        scaled = compose_scaled(BASE, B)
        rng = np.random.default_rng(2)
        pts = [scaled.x0 + 0.2 * rng.uniform(-1, 1, size=2) for _ in range(4)]
        assert verify_derivatives(scaled.objective, pts,
                                  rng=np.random.default_rng(42)).ok

    def test_start_and_reference_map_through_inverse(self):
        B = np.diag([1.0, 10.0])
        scaled = compose_scaled(BASE, B)
        assert np.allclose(B @ scaled.x0, BASE.x0)
        assert np.allclose(B @ scaled.x_star, BASE.x_star)

    def test_catalog_starts_and_optima_map_to_the_bit(self):
        """x0 and x_star are inv(B) @ y0 and inv(B) @ y_star to the bit, and
        f_star is the base's, on every catalog problem, for B with entries
        over six decades, C- or F-ordered."""
        rng = np.random.default_rng(6)
        for name in CATALOG_NAMES:
            base = catalog(name)
            dim = base.objective.dim
            for order in ("C", "F"):
                B = rng.standard_normal((dim, dim)) \
                    * 10.0 ** rng.uniform(-3.0, 3.0)
                if np.linalg.det(B) <= 0.0:
                    B[0] = -B[0]
                B = np.asarray(B, order=order)
                scaled = compose_scaled(base, B)
                Binv = np.linalg.inv(B)
                assert bits(scaled.x0) == bits(Binv @ base.x0), name
                if base.x_star is not None:
                    assert bits(scaled.x_star) == bits(Binv @ base.x_star)
                assert bits(scaled.f_star) == bits(base.f_star), name

    def test_singular_or_reflecting_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"det\(B\) = 0 must be positive"):
            compose_scaled(BASE, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match=r"det\(B\) = -2 must be positive"):
            compose_scaled(BASE, np.diag([1.0, -2.0]))

    @pytest.mark.parametrize("B", [[[1.0, np.nan], [0.0, 1.0]],
                                   np.diag([1.0, np.inf])])
    def test_non_finite_matrix_rejected(self, B):
        with pytest.raises(ValueError, match="infs or NaNs"):
            compose_scaled(BASE, B)

    def test_matrix_whose_inverse_overflows_rejected(self):
        """det(B) = 1e-320 > 0, but inv(B) holds 1e320 = inf, which made
        B^-1 @ x_star a NaN and a RuntimeWarning."""
        with pytest.raises(ValueError, match="^B must have a finite inverse"):
            compose_scaled(BASE, np.diag([1.0, 1e-320]))

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_matrix_whose_inverse_overflows_the_start_rejected(self, action):
        """inv(B) = diag(1.7e308, 1) is finite, but inv(B) @ x0 overflows to
        [inf, -0.7]: a ValueError naming B, whether numpy's overflow
        warning is an error or not."""
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match="^B must have a finite "
                               "inverse that maps x0 and x_star"):
                compose_scaled(BASE, np.diag([6e-309, 1.0]))

    @pytest.mark.parametrize("B", [np.ones((2, 3)), np.eye(2)[None],
                                   np.eye(3)])
    def test_matrix_of_wrong_shape_rejected(self, B):
        message = "^" + re.escape(f"B must be 2x2, got shape {B.shape}") + "$"
        with pytest.raises(ValueError, match=message):
            compose_scaled(BASE, B)
        with pytest.raises(ValueError, match=message):
            run_invariance(BASE, B, ExactSearch())
        with pytest.raises(ValueError, match=message):
            direction_covariance_angle(BASE, B, BASE.x0)


class TestDirectionCovariance:
    def test_direction_maps_through_scaling(self):
        for B in (np.diag([1.0, 10.0]), np.diag([1.0, 1e4]),
                  np.array([[2.0, 1.0], [0.5, 3.0]])):
            rng = np.random.default_rng(5)
            for _ in range(10):
                y = BASE.x0 + 0.5 * rng.uniform(-1, 1, size=2)
                angle = direction_covariance_angle(BASE, B, y)
                assert angle <= 1e-8

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_cond=st.floats(0.0, 3.0),
           log_scale=st.floats(-1.0, 1.0))
    def test_covariant_under_general_maps(self, name, seed, log_cond,
                                          log_scale):
        # A in GL+ with cond(A) = 10**log_cond <= 1e3, scaled by
        # 10**log_scale.
        p = catalog(name)
        A = random_gl_plus(np.random.default_rng(seed), p.objective.dim,
                           log_cond, 10.0 ** log_scale)
        # The angle is rounding, not a broken formula: the x-space Hessian
        # A^T H A is formed in floating point, which perturbs the tangent
        # block by about eps * cond(A)^2 * kappa relative to its size, with
        # kappa = ||H|| / min|eig(B)| at x0. That is ~1e-10 at cond(A) = 1e3
        # on most of the catalog, but kappa = 4e6 on inverse_barrier puts it
        # past 1e-6 there. At cond(A) = 1e6 the angle grows to ~1e-3 on the
        # well-conditioned problems, and the case changes on quad_52 (the
        # tangent block is classified singular) and inverse_barrier (the
        # rounded block turns indefinite).
        B = block_decompose(p.objective, p.x0).B
        kappa = np.linalg.norm(p.objective.hessian(p.x0), 2) / \
            np.min(np.abs(np.linalg.eigvalsh(B)))
        rounding = np.finfo(float).eps * np.linalg.cond(A) ** 2 * kappa
        angle = direction_covariance_angle(p, A, p.x0)
        assert angle <= max(1e-6, 10.0 * rounding)

    def test_covariant_in_n_dimensions(self):
        """Seeded rotated quartics at n = 3..10, six maps of
        cond(A) <= 1e3 each, at a seeded point y; the rounding bound is that
        of test_covariant_under_general_maps."""
        cases = set()
        for n in range(3, 11):
            for seed in range(3):
                rng = np.random.default_rng(1000 * n + seed)
                obj = rotated_quartic(n, seed)
                for _ in range(6):
                    y = rng.normal(size=n)
                    A = random_gl_plus(rng, n, rng.uniform(0.0, 3.0))
                    res = descent_direction(obj, y)
                    if res.case is DirectionCase.STEEPEST_FALLBACK:
                        continue
                    cases.add(res.case)
                    base = Problem(name=f"rotated_quartic_{n}", objective=obj,
                                   x0=y, x_star=None, f_star=None, notes="")
                    B = block_decompose(obj, y).B
                    kappa = np.linalg.norm(obj.hessian(y), 2) / \
                        np.min(np.abs(np.linalg.eigvalsh(B)))
                    rounding = (np.finfo(float).eps * np.linalg.cond(A) ** 2
                                * kappa)
                    angle = direction_covariance_angle(base, A, y)
                    assert angle <= max(1e-6, 10.0 * rounding), (n, seed)
        assert cases == {DirectionCase.AN, DirectionCase.FLIPPED_AN}


class TestRunInvariance:
    def test_identity_scaling_is_exact(self):
        rep = run_invariance(BASE, np.eye(2), ExactSearch())
        assert max(rep.per_iterate_deviation) == 0.0
        assert rep.scaled.iters == rep.base.iters

    def test_report_keeps_the_status_of_a_failed_run(self):
        """At gamma 1e16 the scaled run cannot take its first step; the
        deviations cover row 0 only, and the run's status says why."""
        rep = run_invariance(BASE, np.diag([1.0, 1e16]), ExactSearch())
        assert rep.scaled.status is RunStatus.LINE_SEARCH_FAILURE
        assert rep.scaled.iters == 0
        assert rep.base.status is RunStatus.CONVERGED
        assert len(rep.per_iterate_deviation) == 1
