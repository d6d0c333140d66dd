import numpy as np
import pytest
from helpers import bits, outcome

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


ORACLES = ("value", "gradient", "hessian", "third_directional", "in_domain")


def magnitudes(rng, dim):
    """Entries that are each +-0, ordinary (|a| <= 3) or +-10**e with e
    uniform over the whole double range, from the subnormals to 1.8e308."""
    kind = rng.integers(0, 3, dim)
    return np.where(kind == 0, rng.choice([0.0, -0.0], dim),
                    np.where(kind == 1, rng.uniform(-3.0, 3.0, dim),
                             rng.choice([-1.0, 1.0], dim)
                             * 10.0 ** rng.uniform(-323.5, 308.25, dim)))


class TestOracles:
    """What each catalog oracle hands its caller."""

    def test_each_hessian_call_returns_an_array_of_its_own(self):
        """A caller may write into a Hessian: two calls share no memory,
        and a later call's bits are unchanged."""
        rng = np.random.default_rng(10)
        for name in CATALOG_NAMES:
            obj = catalog(name).objective
            for x in magnitudes(rng, (5, obj.dim)):
                with np.errstate(all="ignore"):
                    first, second = obj.hessian(x), obj.hessian(x)
                    want = bits(second)
                    assert not np.shares_memory(first, second), name
                    first[...] = 7.0
                    second[...] = 7.0
                    assert bits(obj.hessian(x)) == want, name

    def test_lists_and_tuples_give_the_bits_of_arrays(self):
        """Each point argument may be a list or a tuple, with the bits of
        the float64 array, except where an oracle scales x as a whole: the
        quadratics' value and the gradients of poly6 and ring_tilted need
        an array x."""
        whole_x = {("quad_well", "value"), ("quad_51", "value"),
                   ("quad_52", "value"), ("poly6", "gradient"),
                   ("ring_tilted", "gradient")}
        rng = np.random.default_rng(11)
        for name in CATALOG_NAMES:
            obj = catalog(name).objective
            for arrays in rng.uniform(-3.0, 3.0, (10, 4, obj.dim)):
                args = [(list, tuple)[rng.integers(2)](a.tolist())
                        if rng.random() < 0.75 else a for a in arrays]
                for kind in ORACLES:
                    n = 4 if kind == "third_directional" else 1
                    oracle = getattr(obj, kind)
                    if (name, kind) in whole_x:
                        with pytest.raises((AttributeError, TypeError)):
                            oracle(arrays[0].tolist())
                        continue
                    if kind == "in_domain":   # a bool or numpy's bool
                        assert oracle(*args[:1]) == oracle(*arrays[:1])
                        continue
                    assert outcome(oracle, *args[:n]) == \
                        outcome(oracle, *arrays[:n]), (name, kind)

    def test_overflow_gives_inf_or_nan_not_an_error(self):
        """At points with entries from the subnormals to 1.8e308, as float64,
        float32 (entries past its range become +-inf) or int64 vectors,
        every oracle returns: a float, an array of the problem's shape or a
        bool. An overflow gives numpy's inf or NaN, never a bare
        OverflowError from a Python float."""
        rng = np.random.default_rng(12)
        non_finite = 0
        for name in CATALOG_NAMES:
            obj = catalog(name).objective
            n = obj.dim
            for _ in range(50):
                with np.errstate(over="ignore"):
                    draws = [magnitudes(rng, (4, n)),
                             magnitudes(rng, (4, n)).astype(np.float32),
                             rng.integers(-10 ** 18, 10 ** 18, (4, n))
                             // 10 ** rng.integers(0, 19, (4, n))]
                for x, u, v, w in draws:
                    with np.errstate(all="ignore"):
                        f = obj.value(x)
                        g = obj.gradient(x)
                        H = obj.hessian(x)
                        t = obj.third_directional(x, u, v, w)
                        inside = obj.in_domain(x)
                    assert type(f) is float and type(t) is float, name
                    assert g.shape == (n,) and H.shape == (n, n), name
                    assert inside in (True, False), name
                    if x.dtype == np.float64:
                        assert g.dtype == H.dtype == np.float64, name
                    non_finite += not np.isfinite(f)
        assert non_finite > 100
