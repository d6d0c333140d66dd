from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from helpers import (Recorder, bits, coupled_quartic, flat_valley,
                     non_finite_third_problem, outcome, quadratic,
                     random_gl_plus, random_objective, rotated_quartic)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinedescent import direction
from affinedescent.direction import (DirectionCase, DirectionResult,
                                     _fallback_result, _matrix_direction,
                                     _oriented_result, _planar_direction,
                                     _third_tensor_tangent,
                                     affine_normal_direction, block_decompose,
                                     classify_point, descent_direction,
                                     newton_direction)
from affinedescent.errors import (NonFiniteHessian, NonFiniteThird,
                                  SingularHessian, ZeroGradient)
from affinedescent.invariance import compose_scaled
from affinedescent.numerics import (DefinitenessTag, Frame,
                                    build_gradient_frame, classify_symmetric,
                                    norm2)
from affinedescent.objective import make_objective
from affinedescent.problems import CATALOG_NAMES, catalog


def skewed(obj, seed):
    """obj with a seeded skew-symmetric matrix of order one added to what
    its Hessian oracle returns: the symmetric part is obj's Hessian."""
    K = np.random.default_rng(seed).normal(size=(obj.dim, obj.dim))
    K = K - K.T
    return replace(obj, hessian=lambda x: obj.hessian(x) + K)


def symmetrized(obj):
    """obj whose Hessian oracle returns 0.5 * (H + H^T) of obj's H."""
    def hessian(x):
        H = np.asarray(obj.hessian(x), dtype=float)
        return 0.5 * (H + H.T)
    return replace(obj, hessian=hessian)


class TestBlockDecomposition:
    def test_two_dim_quadratic_blocks(self):
        # H=diag(1,4), grad (1,-4) at (2,0): B=20/17, c=-12/17, d_nn=65/17
        obj = catalog("quad_51").objective
        block = block_decompose(obj, np.array([2.0, 0.0]))
        assert block.B[0, 0] == pytest.approx(20.0 / 17.0, rel=1e-14)
        assert block.c[0] == pytest.approx(-12.0 / 17.0, rel=1e-14)
        assert block.d_nn == pytest.approx(65.0 / 17.0, rel=1e-14)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_classify_point_takes_the_symmetric_part(self, dim):
        base, x = random_objective(dim, seed=dim)
        obj = skewed(base, seed=dim)
        B = block_decompose(obj, x).B
        if dim > 2:
            assert not np.array_equal(B, B.T)
        assert bits(classify_point(obj, x).matrix) == bits(0.5 * (B + B.T))

    def test_blocks_reassemble_to_hessian(self):
        obj = catalog("convex_53").objective
        x = np.array([0.4, -1.1])
        block = block_decompose(obj, x)
        Q = block.frame.basis
        Hf = np.zeros((2, 2))
        Hf[:1, :1] = block.B
        Hf[:1, 1] = block.c
        Hf[1, :1] = block.c
        Hf[1, 1] = block.d_nn
        assert np.allclose(Q @ Hf @ Q.T, obj.hessian(x), atol=1e-12)

    def test_explicit_frame_is_respected(self):
        obj = catalog("quad_52").objective
        x = np.array([2.0, 0.0, 0.0])
        basis = np.eye(3)[:, [1, 2, 0]]   # tangent e2,e3; normal e1 = grad dir
        frame = Frame(basis=basis, grad_norm=1.0)
        block = block_decompose(obj, x, frame=frame)
        assert np.allclose(block.B, np.diag([4.0, 9.0]), atol=1e-15)
        assert np.allclose(block.c, 0.0, atol=1e-15)
        # the pure normal direction, exactly, in that frame
        d = _matrix_direction(obj, x, frame).d
        assert np.array_equal(d, np.array([-1.0, 0.0, 0.0]))
        # the default frame's tangent block has the same eigenvalues
        B = block_decompose(obj, x).B
        assert np.allclose(np.linalg.eigvalsh(B), [4.0, 9.0], atol=1e-12)


def assert_singular_fallback(obj, x):
    """At a singular tangent block, both entry points report alike:
    SteepestFallback along -n_hat with T = 0 and step scale 1. Returns
    descent_direction's result."""
    assert classify_point(obj, x).tag is DefinitenessTag.SINGULAR
    n_hat = build_gradient_frame(obj.gradient(x)).normal
    results = [entry(obj, x)
               for entry in (descent_direction, affine_normal_direction)]
    for res in results:
        assert res.case is DirectionCase.STEEPEST_FALLBACK
        assert np.array_equal(res.d, -n_hat)
        assert res.T == 0.0
        assert res.step_scale == 1.0
    return results[0]


class TestCases:
    def test_flipped_case_on_negative_tangent_curvature(self):
        obj = catalog("four_well").objective
        x = np.array([0.0, -1.5])
        res = descent_direction(obj, x)
        assert res.case is DirectionCase.FLIPPED_AN
        assert classify_point(obj, x).tag is DefinitenessTag.OTHER_INDEFINITE
        assert np.array_equal(res.d, np.array([0.0, 1.0]))
        g = obj.gradient(x)
        assert float(g @ res.d) < 0.0

    def test_fallback_on_singular_tangent_block(self):
        res = assert_singular_fallback(flat_valley(), np.array([3.0, 2.0]))
        assert np.array_equal(res.d, np.array([0.0, -1.0]))
        assert res.T == 0.0 and res.cos_theta == 1.0

    def test_degenerate_block_raises_in_plain_direction(self):
        """The plain entry point raises nothing at a singular tangent
        block: it reports the fallback, field for field as
        descent_direction does at the same 2-D point."""
        obj, x = flat_valley(), np.array([3.0, 2.0])
        res = affine_normal_direction(obj, x)
        assert res.case is DirectionCase.STEEPEST_FALLBACK
        assert classify_point(obj, x).tag is DefinitenessTag.SINGULAR
        assert bits(res) == bits(descent_direction(obj, x))

    def test_fallback_when_band_swallows_inner_product(self, monkeypatch):
        # The band |g.d| <= ||g|| ||d|| / T_TANGENT, in which d is
        # numerically tangent, is T >= T_TANGENT: at T_TANGENT = 0 it
        # swallows every d
        monkeypatch.setattr(direction, "T_TANGENT", 0.0)
        obj = catalog("quad_51").objective
        res = descent_direction(obj, np.array([2.0, 0.0]))
        assert res.case is DirectionCase.STEEPEST_FALLBACK

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_tangent_falls_back_whatever_the_orientation(self, b):
        """T = ||tau|| at or past T_TANGENT, infinite or NaN falls back,
        where the orientation sign names AN (omega = +1) or FlippedAN
        (omega = -1) just below T_TANGENT: as _oriented_result reads T, and
        on both paths, whose 1x1 tangent block b * 1e-9 gives T = 1e13, or
        an infinite T where the solve overflows."""
        cls = classify_symmetric(np.array([[b]]))
        n_hat = np.array([0.0, 1.0])
        below = np.nextafter(direction.T_TANGENT, 0.0)
        res = _oriented_result(np.array([below, -1.0]), below, cls.det_sign,
                               n_hat, 1.0, cls.scale, lambda: 1.0, 1.0)
        assert res.case is (
            DirectionCase.AN if b > 0.0 else DirectionCase.FLIPPED_AN)

        def schur():
            raise AssertionError("a fallback evaluates no step scale")

        for T in (direction.T_TANGENT, 1.5e12, np.inf, np.nan):
            res = _oriented_result(np.array([T, -1.0]), T, cls.det_sign,
                                   n_hat, 1.0, cls.scale, schur, 1.0)
            assert bits(res) == bits(_fallback_result(n_hat))
        for c in (1e4, 1e300):
            # the frame of g = (0, 1) is the identity, so H is the framed
            # Hessian as written
            obj = fixed_oracles(np.array([0.0, 1.0]),
                                np.array([[b * 1e-9, c], [c, 1.0]]), 0.0)
            assert_planar_is_matrix_path(obj, np.zeros(2))
            with np.errstate(over="ignore", invalid="ignore"):
                res = descent_direction(obj, np.zeros(2))
            assert res.case is DirectionCase.STEEPEST_FALLBACK
            assert classify_point(obj, np.zeros(2)).det_sign == b

    def test_fallback_on_indefinite_block_with_zero_eigenvalue(self):
        # tangent block diag(-2, 0): Singular, though its lowest eigenvalue
        # is far from zero
        obj = quadratic(np.diag([-2.0, 0.0, 1.0]))
        x = np.array([0.0, 0.0, 1.0])
        assert_singular_fallback(obj, x)
        assert classify_point(obj, x).eigs.tolist() == [-2.0, 0.0]

    def test_fallback_on_indefinite_block_with_near_zero_eigenvalue(self):
        # frame at 0 is (e1, e2 | e3): tangent block diag(-2, 1e-11), c = (0, 0.5)
        obj = quadratic([[-2.0, 0.0, 0.0], [0.0, 1e-11, 0.5], [0.0, 0.5, 1.0]],
                        [0.0, 0.0, 1.0])
        assert_singular_fallback(obj, np.zeros(3))

    @pytest.mark.parametrize("entry", [descent_direction,
                                       affine_normal_direction],
                             ids=["planar", "matrix"])
    def test_small_schur_complement_still_scales_the_step(self, entry):
        """Kills the mutants SCALE_FLOOR = 1e-3 and 2e-12 (for 1e-12). f =
        x.A.x/2 + x_1 with A = [[1, 1], [1, 1 + e]] at 0: the gradient is
        e_1, so B = 1 + e and the Schur complement is det A / B, about e of
        the block scale. It lies above the floor of 1e-12 of that scale, and
        below 1e-3 of it at e = 1e-6 and below 2e-12 of it at e = 1.5e-12.
        The step scale is ||g|| / s, about 1 / e, where those mutants give
        1. The direction's Schur complement 1 - 1 / B cancels to a relative
        error of about eps / e, 1.5e-4 at e = 1.5e-12."""
        for e, mutant_floor, rel in ((1e-6, 1e-3, 1e-8),
                                     (1.5e-12, 2e-12, 1e-3)):
            A = np.array([[1.0, 1.0], [1.0, 1.0 + e]])
            obj = quadratic(A, [1.0, 0.0])
            res = entry(obj, np.zeros(2))
            B = A[1, 1]
            s = np.linalg.det(A) / B
            assert res.case is DirectionCase.AN
            assert classify_point(obj, np.zeros(2)).scale == B
            assert 1e-12 * B < s < mutant_floor * B
            assert res.step_scale == pytest.approx(1.0 / s, rel=rel)

    @pytest.mark.parametrize("dim, third, scale, message", [
        (2, np.nan, 1.0, "^third derivative has infs or NaNs$"),
        (3, np.nan, 1.0, "^third derivative has infs or NaNs$"),
        # finite, but |g| s / (m + 2) overflows at gradient norm 1e10; dim 4,
        # as at m = 2 the trace s cancels on the indefinite block diag(-1, 1)
        (2, 1e308, 1e10, "^third-derivative correction has infs or NaNs$"),
        (4, 1e308, 1e10, "^third-derivative correction has infs or NaNs$")],
        ids=["2-nan", "3-nan", "2-overflow", "4-overflow"])
    @pytest.mark.parametrize("sign", [1.0, -1.0],
                             ids=["definite", "indefinite"])
    def test_non_finite_third_is_a_typed_error(self, sign, dim, third, scale,
                                               message):
        """Both paths, the matrix path with the default or an explicit
        frame, and the affine-normal direction raise one error after the
        same oracle calls, whatever the tangent block's definiteness."""
        obj = non_finite_third_problem(dim, sign, third).objective
        x = scale * np.eye(dim)[-1]
        frame = build_gradient_frame(obj.gradient(x))
        calls = []
        for path in (lambda o: descent_direction(o, x),
                     lambda o: _matrix_direction(o, x, frame),
                     lambda o: _matrix_direction(o, x, None),
                     lambda o: affine_normal_direction(o, x)):
            rec = Recorder(obj)
            with pytest.raises(NonFiniteThird, match=message), \
                    np.errstate(over="ignore"):
                path(rec.obj)
            calls.append(len(rec.of("third_directional")))
        m = dim - 1
        assert calls == [m * m * (m + 1) // 2] * 4   # the whole tensor

    @pytest.mark.parametrize("negatives, case", [
        (0, DirectionCase.AN), (1, DirectionCase.FLIPPED_AN),
        (2, DirectionCase.AN), (3, DirectionCase.FLIPPED_AN)])
    def test_orientation_on_three_dim_tangent_block(self, negatives, case):
        # frame at 0 is (e1, e2, e3 | e4), so B is the leading 3x3 block;
        # with m = 3 the orientation is sign(det B)
        H = np.diag([1.0, 2.0, 3.0, 1.0])
        H[:negatives, :negatives] *= -1.0
        H[:3, 3] = H[3, :3] = [0.5, 0.3, 0.1]
        obj = quadratic(H, [0.0, 0.0, 0.0, 1.0])
        res = descent_direction(obj, np.zeros(4))
        eigs = classify_point(obj, np.zeros(4)).eigs
        assert np.count_nonzero(eigs < 0.0) == negatives
        assert res.case is case
        assert float(obj.gradient(np.zeros(4)) @ res.d) < 0.0

    def test_zero_gradient_raises(self):
        obj = catalog("quad_well").objective
        with pytest.raises(ZeroGradient):
            descent_direction(obj, catalog("quad_well").x_star)

    def test_one_dim_objective_raises_unsupported_dimension(self):
        obj = quadratic([[2.0]], [1.0])
        with pytest.raises(ValueError, match="needs dimension >= 2, got 1"):
            descent_direction(obj, np.array([0.5]))

    def test_non_finite_hessian_raises(self):
        obj = replace(catalog("rosenbrock").objective,
                      hessian=lambda x: np.full((2, 2), np.nan))
        x = np.array([0.5, 0.5])
        for call in (block_decompose, classify_point, descent_direction,
                     affine_normal_direction, newton_direction):
            with pytest.raises(NonFiniteHessian):
                call(obj, x)
        with pytest.raises(NonFiniteHessian):
            newton_direction(obj, x, regularize=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_infinite_normal_curvature_raises(self, n):
        """H = 1.6e308 11^T + 1e307 I and g = 1/sqrt(n) at 0: the oracle's
        values are finite and so is B, 1e307 I, but the framed normal
        curvature d_nn overflows. Its Schur complement is then inf, which
        is NonFiniteHessian on both paths, not a unit step scale."""
        obj = quadratic(1.6e308 * np.ones((n, n)) + 1e307 * np.eye(n),
                        np.ones(n) / sqrt(n))
        x = np.zeros(n)
        # the frame's matmuls overflow on the way to d_nn
        with np.errstate(all="ignore"):
            block = block_decompose(obj, x)
            assert np.all(np.isfinite(block.B)) and np.isfinite(block.c).all()
            assert block.d_nn == np.inf
            for call in (descent_direction, affine_normal_direction):
                with pytest.raises(NonFiniteHessian, match="Schur"):
                    call(obj, x)


def logged_outcome(path, obj, x):
    """The outcome of one direction path together with its oracle calls."""
    rec = Recorder(obj)
    # the matrix path's numpy arithmetic warns on overflow, Python floats
    # do not
    with np.errstate(all="ignore"):
        return outcome(path, rec.obj, x), rec.calls


def default_matrix_path(obj, x):
    return _matrix_direction(obj, x, None)


def assert_planar_is_matrix_path(obj, x):
    """The same outcome on both paths: the planar path's T = |tau| has the
    bits of the matrix path's norm2 of the 1-entry tau. The oracle calls
    are the same but for the planar path's second gradient call at x,
    which the matrix path saves by building its frame from the gradient it
    holds."""
    planar = logged_outcome(_planar_direction, obj, x)
    out, calls = logged_outcome(default_matrix_path, obj, x)
    assert calls[0][0] == "gradient"
    assert planar == (out, calls[:1] + calls)


def one_entry_norm(t):
    """||(t,)||: sqrt(t * t) where 1e-146 <= sqrt(t * t) < inf, else |t|."""
    r = sqrt(t * t)
    return r if 1e-146 <= r < np.inf else abs(t)


def fixed_oracles(g, H, third):
    """A 2-D objective with a constant gradient, Hessian and third
    derivative."""
    return make_objective(
        dim=2, value=lambda x: 0.0, gradient=lambda x: g.copy(),
        hessian=lambda x: H.copy(), third_directional=lambda x, u, v, w: third)


GRAD_ENTRIES = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
# The tangent entry b of the Hessian in the gradient frame, on either side
# of and within the singularity band +-1e-10 * max(1, |b|).
TANGENT_CURVATURE = st.one_of(st.floats(2e-10, 1e6), st.floats(-1e-10, 1e-10),
                              st.floats(-1e6, -2e-10))
THIRD = st.one_of(st.floats(-1e8, 1e8),
                  st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]))


class TestPlanarPath:
    """The scalar closed form for n = 2 against the matrix path."""

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(GRAD_ENTRIES, GRAD_ENTRIES).filter(any),
           TANGENT_CURVATURE, st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
           THIRD, st.sampled_from([None, 250.0, 300.0, 307.0]))
    @example((0.0, -0.0), 1.0, 0.0, 1.0, 0.0, None)
    # tau = -0 beside n_hat[0] = +0: d[0] is +0 only if t[0] * tau is
    # summed from +0, as the matrix-vector product does
    @example((0.0, 1.0), -1.0, 0.0, 1.0, 0.0, None)
    # T ~ 1e13: d is numerically tangent
    @example((0.6, 0.8), 1e-9, 1e4, 1.0, 0.0, None)
    # b = 1e308 in the frame e1, e2: 2b overflows in the classification
    @example((0.0, 1.0), 1.5, 1.0, 1.0, 0.0, 308.0)
    # a finite third derivative whose correction term overflows
    @example((0.0, 1e10), 1.0, 0.0, 1.0, 1e308, None)
    @example((0.0, 1e10), -1.0, 0.0, 1.0, 1e308, None)
    def test_bitwise_equal_to_matrix_path(self, g, b, c, d_nn, third,
                                          log_max):
        """Frame entries b, c, d_nn of the Hessian; with log_max, the
        Hessian is rescaled to largest entry 10**log_max."""
        g = np.array(g)
        gnorm = np.linalg.norm(g)
        Q = build_gradient_frame(g).basis if gnorm > 1e-300 else np.eye(2)
        H = Q @ np.array([[b, c], [c, d_nn]]) @ Q.T
        if log_max is not None and H.any():
            H = H / np.abs(H).max() * 10.0 ** log_max
        assert_planar_is_matrix_path(fixed_oracles(g, H, third), np.zeros(2))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["quad_51", "convex_53", "poly6",
                            "inverse_barrier", "rosenbrock", "ring_tilted",
                            "saddle_poly", "four_well", "counterexample",
                            "strongly_convex_base"]),
           st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
    def test_catalog_points(self, name, dx, dy):
        p = catalog(name)
        x = np.asarray(p.x0, dtype=float) + np.array([dx, dy])
        if p.objective.in_domain(x):
            assert_planar_is_matrix_path(p.objective, x)

    def test_T_of_one_entry_is_sqrt_of_square(self):
        """T = norm2(tau) on a 1-entry tau gives the bits of sqrt(t * t)
        where 1e-146 <= sqrt(t * t) < inf, and |t| where t * t overflows
        or may have underflowed, over random bit patterns and the edges of
        the double range: everywhere the bits of |t|, the planar path's
        T."""
        rng = np.random.default_rng(20)
        ts = rng.integers(0, 2 ** 64, size=200_000,
                          dtype=np.uint64).view(float)
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1e-146, -1e-146, np.nextafter(1e-146, 0.0),
                 1.4916681462400413e-154, 1.3407807929942596e154,
                 1.4e154, 1.7976931348623157e308, np.inf, -np.inf]
        ts = np.concatenate([edges, ts[~np.isnan(ts)]])
        with np.errstate(over="ignore", under="ignore"):
            got = [norm2(ts[i:i + 1]) for i in range(ts.size)]
        want = [one_entry_norm(t) for t in ts.tolist()]
        want = np.array(want)
        assert bits(np.array(got)) == bits(want)
        assert bits(np.abs(ts)) == bits(want)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)))
    def test_basis_is_the_gradient_frame(self, g):
        """build_gradient_frame's scalar n = 2 branch gives the bits of the
        general Householder formula: I - k u u^T with u = n_hat - s e_2 and
        k = 2 / u.u, its last column replaced by n_hat."""
        g = np.array(g)
        if np.linalg.norm(g) > 1e-300:
            fr = build_gradient_frame(g)
            n_hat = g / fr.grad_norm
            u = n_hat.copy()
            u[-1] -= -1.0 if n_hat[-1] >= 0.0 else 1.0
            want = np.eye(2) - (2.0 / float(u @ u)) * np.outer(u, u)
            want[:, -1] = n_hat
            assert bits(fr.basis) == bits(want)

    def test_only_planar_default_frames_take_it(self, monkeypatch):
        def matrix_path(obj, x, frame):
            raise AssertionError("matrix path")

        monkeypatch.setattr(direction, "_matrix_direction", matrix_path)
        p = catalog("rosenbrock")
        descent_direction(p.objective, p.x0)
        with pytest.raises(AssertionError, match="matrix path"):
            descent_direction(catalog("quad_52").objective, np.ones(3))

    @pytest.mark.parametrize("entry", [descent_direction,
                                       affine_normal_direction])
    def test_entry_points_take_no_frame(self, entry):
        """The path follows from the dimension alone: no caller picks it
        by passing a frame."""
        p = catalog("rosenbrock")
        frame = build_gradient_frame(p.objective.gradient(p.x0))
        with pytest.raises(TypeError, match="frame"):
            entry(p.objective, p.x0, frame=frame)

    @pytest.mark.parametrize("target, value", [
        ("numerics.DEGENERACY_TOL", 1e6), ("numerics.DEGENERACY_TOL", 0.5),
        ("direction.T_TANGENT", 0.0), ("direction.SCALE_FLOOR", 1e6)])
    def test_both_paths_read_each_tolerance_from_its_home(
            self, monkeypatch, target, value):
        # built before the patch, which would otherwise reach the reference
        # optima that problem construction polishes
        problems = [catalog(n) for n in CATALOG_NAMES
                    if catalog(n).objective.dim == 2]
        rng = np.random.default_rng(11)
        points = [(p.objective, x) for p in problems
                  for x in p.x0 + rng.uniform(-1.5, 1.5, size=(8, 2))
                  if p.objective.in_domain(x)]
        before = [logged_outcome(_planar_direction, obj, x)
                  for obj, x in points]
        monkeypatch.setattr(f"affinedescent.{target}", value)
        after = []
        for obj, x in points:
            assert_planar_is_matrix_path(obj, x)
            after.append(logged_outcome(_planar_direction, obj, x))
        assert after != before   # the patched tolerance decides some point


class TestOracleCalls:
    """The oracle calls of one direction: one gradient, none on n >= 3 when
    the caller passes the gradient at x, one Hessian and m*m(m+1)/2 third
    derivatives over the m = n - 1 tangent directions."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_one_call_per_quantity(self, dim):
        obj, x = random_objective(dim, seed=dim)
        m = dim - 1
        # A gradient the caller passes saves the matrix path's call, with
        # the same result bits. The planar path does not read it and
        # evaluates the gradient twice: catalog2d's golden gradient count
        # in perfbench/golden.json includes both calls.
        # affine_normal_direction takes the matrix path at n = 2 too, so it
        # makes one gradient call at every n.
        seen = []
        for entry, given, gradients in (
                (descent_direction, (), 2 if dim == 2 else 1),
                (descent_direction, (obj.gradient(x),), 2 if dim == 2 else 0),
                (affine_normal_direction, (), 1)):
            rec = Recorder(obj)
            res = entry(rec.obj, x, *given)
            assert res.case is not DirectionCase.STEEPEST_FALLBACK
            seen.append(bits(res))
            assert len(rec.of("gradient")) == gradients
            assert len(rec.of("hessian")) == 1
            assert len(rec.of("third_directional")) == m * m * (m + 1) // 2
            assert rec.of("value") == []
            # every gradient call is at x itself
            assert all(c[1] == x.tobytes() for c in rec.of("gradient"))
        assert seen[0] == seen[1] == seen[2]


class TestAffineNormalDirection:
    def test_is_descent_direction_beyond_the_plane(self):
        """At n >= 3 the same result bits, oracle calls and case as
        descent_direction without a gradient, on definite and indefinite
        tangent blocks."""
        p = catalog("quad_52")
        points = [(p.objective, p.x0)]
        for n in range(3, 7):
            rng = np.random.default_rng(n)
            for seed in range(2):
                points += [(rotated_quartic(n, seed), rng.normal(size=n)),
                           (coupled_quartic(rng.normal(size=n),
                                            rng.uniform(-2.0, 2.0, size=n)),
                            rng.normal(size=n))]
        cases = set()
        for obj, x in points:
            out = logged_outcome(affine_normal_direction, obj, x)
            assert out == logged_outcome(descent_direction, obj, x)
            cases.add(affine_normal_direction(obj, x).case)
        assert cases == {DirectionCase.AN, DirectionCase.FLIPPED_AN}


class TestThirdTensorTangent:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.obj = coupled_quartic(rng.normal(size=5),
                                   rng.uniform(1.0, 2.0, size=5))
        self.x = rng.normal(size=5)
        self.frame = build_gradient_frame(self.obj.gradient(self.x))

    def test_matches_scalar_definition_and_is_symmetric(self):
        M = _third_tensor_tangent(self.obj, self.x, self.frame)
        T = self.frame.tangent
        m = T.shape[1]
        for p in range(m):
            for q in range(p, m):
                for i in range(m):
                    assert M[p, q, i] == self.obj.third_directional(
                        self.x, T[:, p], T[:, q], T[:, i])
        assert np.array_equal(M, M.transpose(1, 0, 2))

    def test_one_oracle_call_per_upper_entry_in_order(self):
        calls = []

        def counted(x, u, v, w):
            calls.append((u.copy(), v.copy(), w.copy()))
            return self.obj.third_directional(x, u, v, w)

        obj = replace(self.obj, third_directional=counted)
        _third_tensor_tangent(obj, self.x, self.frame)
        T = self.frame.tangent
        m = T.shape[1]
        expected = [(p, q, i) for p in range(m) for q in range(p, m)
                    for i in range(m)]
        assert len(calls) == m * m * (m + 1) // 2 == len(expected)
        for (u, v, w), (p, q, i) in zip(calls, expected):
            assert np.array_equal(u, T[:, p])
            assert np.array_equal(v, T[:, q])
            assert np.array_equal(w, T[:, i])


class TestNewtonDirection:
    def test_spd_solve(self):
        obj = quadratic(np.diag([2.0, 8.0]), np.array([0.1, 0.2]))
        x = np.array([1.0, 1.0])
        d = newton_direction(obj, x)
        assert np.allclose(x + d, np.array([-0.05, -0.025]), atol=1e-12)

    def test_indefinite_invertible_solves_as_is(self):
        obj = catalog("four_well").objective
        x = np.array([0.0, -1.5])
        d = newton_direction(obj, x)
        H = obj.hessian(x)
        g = obj.gradient(x)
        assert np.allclose(H @ d, -g, atol=1e-12)

    def test_singular_raises_without_regularization(self):
        with pytest.raises(SingularHessian):
            newton_direction(flat_valley(), np.array([3.0, 2.0]))

    @pytest.mark.parametrize("regularize", [False, True],
                             ids=["plain", "regularized"])
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_asymmetric_oracle_is_its_symmetric_part(self, dim, regularize):
        """The same bits as from an oracle returning 0.5 * (H + H^T), at
        points where that part is positive definite and where it is
        indefinite, so that the regularizing shift applies."""
        rng = np.random.default_rng(dim)
        obj = skewed(coupled_quartic(rng.normal(size=dim),
                                     rng.uniform(0.5, 2.0, size=dim)),
                     seed=dim)
        lowest = []
        xs = rng.normal(size=(4, dim))
        for x in np.concatenate([xs, -xs]):   # a.x of both signs
            H = obj.hessian(x)
            lowest.append(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
            assert bits(newton_direction(obj, x, regularize)) == \
                bits(newton_direction(symmetrized(obj), x, regularize))
        assert min(lowest) < 0.0 < max(lowest)

    @pytest.mark.parametrize("entry", [
        newton_direction, descent_direction, affine_normal_direction,
        lambda obj, x: newton_direction(obj, x, regularize=True)],
        ids=["newton", "descent", "affine_normal", "regularized"])
    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4,)])
    def test_hessian_of_the_wrong_shape_is_an_error(self, entry, shape):
        """A ValueError naming the shape, not a run status such as
        NonFiniteHessian, and before any symmetrization."""
        obj = replace(quadratic(np.eye(2), np.ones(2)),
                      hessian=lambda x: np.ones(shape))
        with pytest.raises(ValueError, match="Hessian oracle returned shape"):
            entry(obj, np.array([1.0, 2.0]))

    def test_regularizing_shift_leaves_least_eigenvalue_1e_8_of_scale(self):
        """Kills the mutant shift 1e-4 * scale (for 1e-8 * scale). H =
        diag(-1, 2), g = (1, 1) at 0: the shift 1 + 2e-8 leaves the least
        eigenvalue 2e-8 = 1e-8 * scale, so the first entry of -H^-1 g is
        -1 / 2e-8; that mutant gives -5e3."""
        obj = quadratic(np.diag([-1.0, 2.0]), [1.0, 1.0])
        d = newton_direction(obj, np.zeros(2), regularize=True)
        assert d[0] == pytest.approx(-1.0 / 2e-8, rel=1e-6)

    def test_regularized_returns_descent_direction(self):
        obj = catalog("four_well").objective
        x = np.array([0.0, -1.5])
        d = newton_direction(obj, x, regularize=True)
        assert float(obj.gradient(x) @ d) < 0.0
        d2 = newton_direction(flat_valley(), np.array([3.0, 2.0]),
                              regularize=True)
        assert np.all(np.isfinite(d2))


def assert_descent_characterized(obj, x):
    """Unless the result is SteepestFallback: the case is AN exactly when
    the orientation sign omega is +1 (sign det B for an odd number m of
    tangent directions, +1 for even m), and g.d = -||g||, since d = T tau
    - n_hat with T^T g = 0.

    g.d is then a sum of products of size ||g|| ||d||, so its rounding
    error scales with ||d||, not with ||g|| alone. At most 2 eps ||g|| ||d||
    was seen over 8,744 such draws. A flat 1e-8 ||g|| fails where T is
    huge: ||d|| = 4.7e10 on a coupled quartic gave 1.2e-6 ||g||."""
    res = descent_direction(obj, x)
    if res.case is DirectionCase.STEEPEST_FALLBACK:
        return
    cls = classify_point(obj, x)
    omega = cls.det_sign if cls.eigs.size % 2 else 1.0
    assert (res.case is DirectionCase.AN) == (omega > 0.0)
    g = np.asarray(obj.gradient(x), dtype=float)
    gnorm = float(np.linalg.norm(g))
    assert abs(float(g @ res.d) + gnorm) <= \
        64.0 * np.finfo(float).eps * gnorm * float(np.linalg.norm(res.d))


class TestDescentCharacterization:
    """The paper's descent characterization: AN or FlippedAN is the
    orientation sign, and the oriented direction descends with g.d =
    -||g||."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CATALOG_NAMES), st.integers(0, 2 ** 32 - 1))
    def test_catalog_points(self, name, seed):
        p = catalog(name)
        rng = np.random.default_rng(seed)
        x = p.x0 + 1.5 * rng.uniform(-1.0, 1.0, size=p.objective.dim)
        if p.objective.in_domain(x) and \
                np.linalg.norm(p.objective.gradient(x)) > 1e-8:
            assert_descent_characterized(p.objective, x)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([n for n in CATALOG_NAMES
                            if catalog(n).objective.dim == 2]),
           st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0))
    def test_images_under_general_maps(self, name, seed, log_cond):
        """phi(A x) for A in GL+(2) with cond(A) <= 1e3, at x = A^-1 y."""
        p = catalog(name)
        rng = np.random.default_rng(seed)
        A = random_gl_plus(rng, 2, log_cond)
        y = p.x0 + 1.5 * rng.uniform(-1.0, 1.0, size=2)
        obj = compose_scaled(p, A).objective
        x = np.linalg.solve(A, y)
        if obj.in_domain(x) and np.linalg.norm(obj.gradient(x)) > 1e-8:
            assert_descent_characterized(obj, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2 ** 32 - 1))
    def test_coupled_quartics(self, dim, seed):
        """Indefinite tangent blocks of every m from 2 to 5, so both
        orientation rules and both cases occur."""
        rng = np.random.default_rng(seed)
        obj = coupled_quartic(rng.normal(size=dim),
                              rng.uniform(-2.0, 2.0, size=dim))
        x = rng.normal(size=dim)
        if np.linalg.norm(obj.gradient(x)) > 1e-8:
            assert_descent_characterized(obj, x)
