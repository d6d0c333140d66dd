import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from affinedescent.errors import ZeroGradient
from affinedescent.numerics import (DefinitenessTag, angle_between,
                                    build_gradient_frame, classify_symmetric,
                                    inf_norm, norm2, solve_spd,
                                    solve_symmetric)


def finite_vectors(dim):
    return arrays(np.float64, (dim,),
                  elements=st.floats(-1e8, 1e8, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(finite_vectors))
def test_frame_is_orthonormal_with_gradient_normal(g):
    gnorm = np.linalg.norm(g)
    if gnorm < 1e-12:
        return
    fr = build_gradient_frame(g)
    dim = g.size
    assert fr.basis.shape == (dim, dim)
    assert np.allclose(fr.basis.T @ fr.basis, np.eye(dim), atol=1e-12)
    assert np.allclose(fr.normal, g / gnorm, atol=1e-12)
    assert fr.grad_norm == pytest.approx(gnorm, rel=1e-14)
    # tangent columns are orthogonal to the gradient
    assert np.max(np.abs(fr.tangent.T @ g)) <= 1e-8 * max(1.0, gnorm)


@pytest.mark.parametrize("scale", [1e-150, 1e-161, 1e-200, 1e-290])
def test_frame_of_a_tiny_gradient_has_a_unit_normal(scale):
    """The squares in g.g underflow below |g| ~ 1e-154; the norm, and so
    the unit normal, must not lose their bits to it."""
    fr = build_gradient_frame(scale * np.array([3.0, 4.0, 0.0]))
    assert fr.grad_norm == pytest.approx(5.0 * scale, rel=1e-15)
    assert fr.normal == pytest.approx([0.6, 0.8, 0.0], rel=1e-15)


def test_frame_zero_gradient_rejected():
    with pytest.raises(ZeroGradient):
        build_gradient_frame(np.zeros(3))


def test_frame_needs_two_dims():
    # the dimension is checked before the gradient's values
    for g in ([1.0], [0.0], [np.nan]):
        with pytest.raises(ValueError, match="needs dimension >= 2, got 1"):
            build_gradient_frame(np.array(g))


def test_frame_axis_gradient_is_exact():
    fr = build_gradient_frame(np.array([0.0, -7.5]))
    assert np.array_equal(fr.normal, np.array([0.0, -1.0]))
    assert abs(fr.tangent[1, 0]) == 0.0


def test_frame_matches_hand_frame_on_two_dims():
    # gradient (1,-4): tangent (4,1)/sqrt(17), normal (1,-4)/sqrt(17)
    fr = build_gradient_frame(np.array([1.0, -4.0]))
    s17 = np.sqrt(17.0)
    assert np.allclose(fr.normal, np.array([1.0, -4.0]) / s17, atol=1e-15)
    assert np.allclose(fr.tangent[:, 0], np.array([4.0, 1.0]) / s17,
                       atol=1e-15)


def symmetric_matrices(dim):
    return arrays(np.float64, (dim, dim),
                  elements=st.floats(-100, 100, allow_nan=False)).map(
                      lambda M: 0.5 * (M + M.T))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(symmetric_matrices))
def test_classification_agrees_with_eigenvalues(S):
    cls = classify_symmetric(S)
    eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert cls.min_eig == pytest.approx(eigs[0], rel=1e-9, abs=1e-9)
    assert cls.eigs[-1] == pytest.approx(eigs[-1], rel=1e-9, abs=1e-9)
    # singular when any eigenvalue is near zero, whatever the others' signs
    thresh = 1e-10 * max(1.0, inf_norm(S))
    if eigs[0] > thresh:
        assert cls.tag is DefinitenessTag.POSITIVE_DEFINITE
    elif np.min(np.abs(eigs)) <= thresh:
        assert cls.tag is DefinitenessTag.SINGULAR
    else:
        assert cls.tag is DefinitenessTag.OTHER_INDEFINITE


def test_near_zero_eigenvalue_above_a_negative_one_is_singular():
    assert classify_symmetric(np.diag([-2.0, 1e-11])).tag is \
        DefinitenessTag.SINGULAR


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.data())
def test_near_zero_eigenvalue_at_any_rank_is_singular(dim, data):
    # dim - 1 eigenvalues of magnitude in [0.5, 100], each of either sign,
    # plus one of magnitude <= 1e-11, in a random orthonormal basis
    signs = data.draw(arrays(np.float64, (dim - 1,),
                             elements=st.sampled_from([-1.0, 1.0])))
    mags = data.draw(arrays(np.float64, (dim - 1,),
                            elements=st.floats(0.5, 100.0)))
    tiny = data.draw(st.floats(-1e-11, 1e-11))
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(dim, dim)))
    S = Q @ np.diag(np.append(signs * mags, tiny)) @ Q.T
    assert classify_symmetric(0.5 * (S + S.T)).tag is DefinitenessTag.SINGULAR


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(symmetric_matrices))
def test_det_sign_is_eigenvalue_parity(S):
    cls = classify_symmetric(S)
    assume(cls.tag is not DefinitenessTag.SINGULAR)
    assert cls.det_sign == np.linalg.slogdet(S)[0]


# The largest b for which classify_symmetric's 0.5 * (b + b) does not overflow.
HALF_MAX = np.finfo(float).max / 2.0


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-HALF_MAX, HALF_MAX),
                 st.floats(1e-10, HALF_MAX, exclude_min=True)),
       st.floats(-1e6, 1e6))
def test_one_by_one_classification_is_scalar(b, r):
    # LAPACK identities the planar direction relies on, bit for bit: the
    # eigenvalue of [[b]] is b, its factor W = L^{-T} is w = 1/sqrt(b), and
    # a solve is w * (w * r) when positive definite, r / b otherwise
    cls = classify_symmetric(np.array([[b]]))
    assert cls.eigs.tobytes() == np.array([b]).tobytes()
    if cls.tag is DefinitenessTag.SINGULAR:
        return
    if cls.is_positive_definite:
        w = 1.0 / math.sqrt(b)
        assert cls.factor.tobytes() == np.array([[w]]).tobytes()
        want = w * (w * r)
    else:
        want = r / b
    assert solve_symmetric(cls, np.array([r])).tobytes() == \
        np.array([want]).tobytes()


def test_solve_symmetric_picks_cholesky_or_lu():
    spd = classify_symmetric(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, -2.0])
    assert np.array_equal(solve_symmetric(spd, rhs), solve_spd(spd, rhs))
    indef = classify_symmetric(np.array([[1.0, 2.0], [2.0, -3.0]]))
    assert np.array_equal(solve_symmetric(indef, rhs),
                          np.linalg.solve(indef.matrix, rhs))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 31 - 1),
       st.floats(-6, 6))
def test_spd_solve_residual_is_small(dim, seed, log_scale):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-10, 10, size=(dim, dim))
    rhs = rng.normal(size=dim) * 10.0 ** log_scale
    S = M @ M.T + dim * np.eye(dim)
    cls = classify_symmetric(S)
    assert cls.tag is DefinitenessTag.POSITIVE_DEFINITE
    x = solve_spd(cls, rhs)
    assert np.linalg.norm(S @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.data())
def test_spd_solve_is_bitwise_reciprocal_sqrt_on_diagonal_systems(
        dim, ncols, data):
    # on 1x1 and diagonal systems the solve is exactly what a Cholesky
    # solve computes: (b * (1/sqrt(a))) * (1/sqrt(a))
    diag = data.draw(arrays(np.float64, (dim,),
                            elements=st.floats(0.5, 100.0)))
    shape = (dim,) if ncols == 0 else (dim, ncols)
    rhs = data.draw(arrays(np.float64, shape,
                           elements=st.floats(-1e6, 1e6, allow_nan=False)))
    r = 1.0 / np.sqrt(diag if ncols == 0 else diag[:, None])
    cls = classify_symmetric(np.diag(diag))
    assert np.array_equal(solve_spd(cls, rhs), (rhs * r) * r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_solve_rejects_non_finite_rhs(bad):
    cls = classify_symmetric(np.array([[4.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(ValueError):
        solve_spd(cls, np.array([1.0, bad]))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rhs", [[1.0, -2.0], [[1.0, 2.0, 3.0], [-4.0, 5.0, 6.0]]])
def test_spd_solve_leaves_rhs_unmodified(rhs, order):
    cls = classify_symmetric(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array(rhs, order=order)
    before = rhs.copy()
    solve_spd(cls, rhs)
    assert np.array_equal(rhs, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classification_rejects_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="infs or NaNs"):
        classify_symmetric(np.array([[bad, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        classify_symmetric(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        classify_symmetric(np.array([[1.0, bad], [-bad, 1.0]]))


@pytest.mark.parametrize("M", [[[1e308]], [[1e308, 0.0], [0.0, -1e308]],
                               [[1.0, 1e308], [1e308, 1.0]]],
                         ids=["1x1", "diagonal", "off-diagonal"])
def test_classification_rejects_overflowing_symmetrization(M):
    # finite entries above half the float maximum: 0.5 * (M + M^T) is inf,
    # with no overflow warning
    with pytest.raises(ValueError, match="infs or NaNs"):
        classify_symmetric(np.array(M))


def square_matrices(dim):
    return arrays(np.float64, (dim, dim),
                  elements=st.floats(-100, 100, allow_nan=False))


def class_bits(cls):
    factor = None if cls.factor is None else cls.factor.tobytes()
    return cls.tag, cls.eigs.tobytes(), cls.matrix.tobytes(), factor


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(square_matrices))
def test_classification_is_of_the_symmetric_part(M):
    # an asymmetric part of order one, far above any rounding tolerance
    if M.shape[0] > 1:
        M[0, -1] = M[-1, 0] + 1.0
    S = 0.5 * (M + M.T)
    cls = classify_symmetric(M)
    assert cls.matrix.tobytes() == S.tobytes()
    assert class_bits(cls) == class_bits(classify_symmetric(S))


@pytest.mark.parametrize("shape", [(2, 3), (3, 1), (3,), (2, 2, 2)])
def test_classification_rejects_non_square_matrix(shape):
    with pytest.raises(ValueError, match="square"):
        classify_symmetric(np.ones(shape))


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import affinedescent.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_solve_requires_positive_definite_factor():
    cls = classify_symmetric(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="needs a positive definite matrix, "
                                         "got tag=OtherIndefinite"):
        solve_spd(cls, np.ones(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(finite_vectors))
def test_norm2_is_bitwise_numpy_norm(v):
    for view in (v, v[::-1], v[::2], np.stack([v, v], axis=1)[:, 0]):
        assert norm2(view) == np.linalg.norm(view)


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("v, want", [
    ([1e200, 1.0], 1e200), ([3e200, -4e200], 5e200),
    ([1e300, 1e300, -1e300, 1e300], 2e300), ([1e155], 1e155)])
def test_norm2_of_a_finite_vector_is_finite(v, want, action):
    """Where v.v overflows, norm2 scales first, whether the dot's overflow
    warning is raised or not."""
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert norm2(np.array(v)) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("v, want", [([np.inf, 1.0], np.inf),
                                     ([1.0, -np.inf], np.inf),
                                     ([np.nan, 1e200], np.nan)])
def test_norm2_of_a_non_finite_vector(v, want):
    assert norm2(np.array(v)) == pytest.approx(want, nan_ok=True)


def test_angle_between_basics():
    assert angle_between(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == \
        pytest.approx(0.0, abs=1e-15)
    assert angle_between(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == \
        pytest.approx(np.pi / 2, rel=1e-12)
    assert angle_between(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == \
        pytest.approx(np.pi, rel=1e-12)


def test_angle_between_is_accurate_for_tiny_angles():
    eps = 1e-9
    a = np.array([1.0, 0.0])
    b = np.array([1.0, eps])
    assert angle_between(a, b) == pytest.approx(eps, rel=1e-6)
