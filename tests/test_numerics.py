import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import cho_factor, cho_solve

from affinedescent.errors import NotFactorized, ZeroGradient
from affinedescent.numerics import (DefinitenessTag, angle_between,
                                    build_gradient_frame, classify_symmetric,
                                    inf_norm, norm2, solve_spd)


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


def test_frame_zero_gradient_rejected():
    with pytest.raises(ZeroGradient):
        build_gradient_frame(np.zeros(3))


def test_frame_needs_two_dims():
    with pytest.raises(ValueError):
        build_gradient_frame(np.array([1.0]))


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
    assert cls.max_eig == pytest.approx(eigs[-1], rel=1e-9, abs=1e-9)
    # tag is driven by the minimum eigenvalue alone
    thresh = 1e-10 * max(1.0, inf_norm(S))
    if eigs[0] > thresh:
        assert cls.tag is DefinitenessTag.POSITIVE_DEFINITE
    elif abs(eigs[0]) <= thresh:
        assert cls.tag is DefinitenessTag.SINGULAR
    else:
        assert cls.tag is DefinitenessTag.OTHER_INDEFINITE


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_spd_solve_residual_is_small(dim, data):
    M = data.draw(arrays(np.float64, (dim, dim),
                         elements=st.floats(-10, 10, allow_nan=False)))
    rhs = data.draw(finite_vectors(dim).filter(
        lambda v: np.all(np.abs(v) < 1e6)))
    S = M @ M.T + dim * np.eye(dim)
    cls = classify_symmetric(S)
    assert cls.tag is DefinitenessTag.POSITIVE_DEFINITE
    x = solve_spd(cls, rhs)
    assert np.linalg.norm(S @ x - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.data())
def test_spd_solve_is_bitwise_scipy_cho_solve(dim, ncols, data):
    M = data.draw(arrays(np.float64, (dim, dim),
                         elements=st.floats(-10, 10, allow_nan=False)))
    shape = (dim,) if ncols == 0 else (dim, ncols)
    rhs = data.draw(arrays(np.float64, shape,
                           elements=st.floats(-1e6, 1e6, allow_nan=False)))
    cls = classify_symmetric(M @ M.T + dim * np.eye(dim))
    expected = cho_solve(cho_factor(cls.matrix, lower=True), rhs)
    assert np.array_equal(solve_spd(cls, rhs), expected)


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


def test_solve_requires_positive_definite_factor():
    cls = classify_symmetric(np.diag([1.0, -1.0]))
    with pytest.raises(NotFactorized):
        solve_spd(cls, np.ones(2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(finite_vectors))
def test_norm2_is_bitwise_numpy_norm(v):
    for view in (v, v[::-1], v[::2], np.stack([v, v], axis=1)[:, 0]):
        assert norm2(view) == np.linalg.norm(view)


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
