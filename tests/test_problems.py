import numpy as np
import pytest
from helpers import bits

from affinedescent.problems import (CATALOG_NAMES, catalog,
                                    inverse_barrier_optimum,
                                    make_affine_scaled)

EXPECTED_NAMES = {
    "quad_well", "quad_51", "quad_52", "convex_53", "poly6",
    "inverse_barrier", "rosenbrock", "ring_tilted", "saddle_poly",
    "four_well", "counterexample", "strongly_convex_base",
}


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == EXPECTED_NAMES

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown problem 'nope'; known: "
                                             "quad_well, "):
            catalog("nope")

    def test_catalog_caches(self):
        assert catalog("quad_well") is catalog("quad_well")

    def test_start_points_in_domain_with_nonzero_gradient(self):
        for name in CATALOG_NAMES:
            p = catalog(name)
            assert p.objective.in_domain(p.x0), name
            assert np.isfinite(p.objective.value(p.x0)), name
            assert np.linalg.norm(p.objective.gradient(p.x0)) > 1e-6, name

    def test_references_are_stationary_and_consistent(self):
        for name in CATALOG_NAMES:
            p = catalog(name)
            if p.x_star is None:
                continue
            assert np.linalg.norm(p.objective.gradient(p.x_star)) <= 1e-8, name
            assert p.objective.value(p.x_star) == pytest.approx(
                p.f_star, abs=1e-12), name

    def test_counterexample_has_no_reference(self):
        p = catalog("counterexample")
        assert p.x_star is None and p.f_star is None


class TestKnownOptima:
    def test_quad_well(self):
        p = catalog("quad_well")
        assert np.allclose(p.x0, [1.0, 1.0])
        assert np.allclose(p.x_star, [-0.05, -0.025], atol=1e-14)
        assert p.f_star == pytest.approx(-0.005, abs=1e-15)
        assert np.allclose(p.objective.hessian(p.x0), np.diag([2.0, 8.0]))

    def test_quad_51_values(self):
        p = catalog("quad_51")
        x = np.array([2.0, 0.0])
        assert p.objective.value(x) == 0.0
        assert np.allclose(p.objective.gradient(x), [1.0, -4.0])
        assert np.allclose(p.x_star, [1.0, 1.0], atol=1e-14)
        assert p.f_star == pytest.approx(-2.5, abs=1e-14)

    def test_quad_52_values(self):
        p = catalog("quad_52")
        assert np.allclose(p.x0, [2.0, 0.0, 0.0])
        assert np.allclose(p.x_star, [1.0, 0.0, 0.0], atol=1e-14)
        assert p.f_star == pytest.approx(-0.5, abs=1e-14)

    def test_saddle_poly_minimum(self):
        p = catalog("saddle_poly")
        assert np.allclose(np.abs(p.x_star), [1.0 / np.sqrt(2.0), 0.0],
                           atol=1e-12)
        assert p.f_star == pytest.approx(-0.25, abs=1e-12)

    def test_four_well_minimum(self):
        p = catalog("four_well")
        assert np.allclose(np.abs(p.x_star), [1.0, 1.0], atol=1e-10)
        assert p.f_star == pytest.approx(0.0, abs=1e-12)

    def test_rosenbrock_minimum(self):
        p = catalog("rosenbrock")
        assert np.allclose(p.x0, [-1.2, 1.0])
        assert np.allclose(p.x_star, [1.0, 1.0], atol=1e-10)
        assert p.f_star == pytest.approx(0.0, abs=1e-15)

    # The stated optima keep the bits of a damped-Newton polish to
    # ||grad|| <= 1e-12 from (-0.05, -0.1) and (-1.01, 0).
    @pytest.mark.parametrize("name, x_star_hex, f_star_hex", [
        ("poly6", "0931af1eecc4a8bf34ff1b075d92b6bf", "-0x1.3a24a45148e78p-10"),
        ("ring_tilted", "6b7a864f4532f0bf0000000000000000",
         "-0x1.9c20f7611f8ebp-4"),
    ])
    def test_stated_minimum(self, name, x_star_hex, f_star_hex):
        p = catalog(name)
        assert np.linalg.norm(p.objective.gradient(p.x_star)) <= 1e-12
        assert p.x_star.tobytes().hex() == x_star_hex
        assert p.f_star == float.fromhex(f_star_hex)


class TestInverseBarrier:
    def test_closed_form_satisfies_cubic(self):
        x_star, f_star = inverse_barrier_optimum()
        s = 2.0 * x_star[0]
        assert s * (1.0 - s) ** 2 + 2.0 == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_is_stationary(self):
        p = catalog("inverse_barrier")
        x_star, f_star = inverse_barrier_optimum()
        assert np.allclose(p.x_star, x_star)
        assert p.f_star == f_star
        g = p.objective.gradient(x_star)
        assert np.linalg.norm(g) <= 1e-12
        assert f_star == pytest.approx(0.7107265761, abs=1e-9)

    def test_barrier_blows_up_at_wall(self):
        obj = catalog("inverse_barrier").objective
        near = np.array([0.49, 0.50999])   # slack 1e-5
        assert obj.value(near) > 1e4
        assert obj.value(np.array([0.5, 0.5])) == np.inf


class TestAffineScaling:
    def test_scaled_problem_is_composition_of_base(self):
        """f(x) = |Bx|^2/2, the unit bowl seen through B, with gradient
        B^T B x."""
        problem, B = make_affine_scaled(100.0)
        assert np.allclose(B, np.diag([1.0, 100.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            y = B @ x
            assert problem.objective.value(x) == pytest.approx(
                0.5 * (y @ y), rel=1e-12)
            assert np.allclose(problem.objective.gradient(x), B.T @ y,
                               rtol=1e-12)

    def test_start_points_correspond(self):
        problem, B = make_affine_scaled(7.0)
        assert np.allclose(problem.x0, [1.0, 1.0])
        assert np.array_equal(B @ problem.x0, [1.0, 7.0])

    def test_minimizer_is_origin(self):
        problem, _ = make_affine_scaled(1e4)
        assert np.allclose(problem.x_star, [0.0, 0.0])
        assert problem.f_star == 0.0

    def test_hessian_conditioning(self):
        problem, _ = make_affine_scaled(10.0)
        H = problem.objective.hessian(problem.x0)
        assert np.linalg.cond(H) == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
    def test_gamma_must_be_finite(self, gamma):
        with pytest.raises(ValueError,
                           match="^gamma must be finite and positive$"):
            make_affine_scaled(gamma)


    @pytest.mark.parametrize("gamma", [1e-200, 1e155])
    def test_gamma_squared_must_be_finite_and_positive(self, gamma):
        """gamma^2 underflows to 0 (a singular Hessian) or overflows to inf
        (an infinite start value)."""
        with pytest.raises(ValueError, match="^gamma = .*: its square"):
            make_affine_scaled(gamma)

    @pytest.mark.parametrize("gamma", [1e154, 1e-155])
    def test_gamma_with_a_float_square_builds(self, gamma):
        problem, B = make_affine_scaled(gamma)
        assert problem.objective.hessian(problem.x0)[1, 1] == gamma * gamma
        assert B[1, 1] == gamma


class TestQuadraticValue:
    """The quadratics' value, x (A/2) x + b x with A/2 formed once."""

    @pytest.mark.parametrize("name", ["quad_well", "quad_51", "quad_52"])
    def test_quadratic_value_of_float32_is_value_of_float64(self, name):
        """The halved matrix multiplies x in float64. Halving a float32 x
        first, as the value did before A was halved at construction,
        rounded a subnormal entry: quad_52's value at (0, 2**-149, 0) was
        0.0."""
        obj = catalog(name).objective
        rng = np.random.default_rng(3)
        tiny = 2.0 ** -149    # the smallest float32 subnormal
        points = [rng.uniform(-3.0, 3.0, obj.dim), np.full(obj.dim, tiny),
                  np.eye(obj.dim)[-1] * tiny]
        for x in points:
            x32 = x.astype(np.float32)
            assert bits(obj.value(x32)) == bits(obj.value(x32.astype(float)))
        if name == "quad_52":
            assert obj.value(np.array([0.0, tiny, 0.0],
                                      dtype=np.float32)) > 0.0
