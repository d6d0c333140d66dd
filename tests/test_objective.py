from dataclasses import replace

import numpy as np
import pytest

from affinedescent.errors import DomainViolation
from affinedescent.objective import (GRAD_TOL, HESS_TOL, THIRD_TOL,
                                     _fd_third_rows, fd_gradient, fd_hessian,
                                     make_objective, verify_derivatives)
from affinedescent.problems import catalog


def cubic_objective():
    # f = x1^3 + 2 x1 x2^2 + x2: every derivative order is exercised
    def value(x):
        return x[0] ** 3 + 2.0 * x[0] * x[1] ** 2 + x[1]

    def gradient(x):
        return np.array([3.0 * x[0] ** 2 + 2.0 * x[1] ** 2,
                         4.0 * x[0] * x[1] + 1.0])

    def hessian(x):
        return np.array([[6.0 * x[0], 4.0 * x[1]],
                         [4.0 * x[1], 4.0 * x[0]]])

    def third(x, u, v, w):
        # D3f[u,v,w] = 6 u1 v1 w1 + 4 (u1 v2 w2 + u2 v1 w2 + u2 v2 w1)
        return 6.0 * u[0] * v[0] * w[0] + 4.0 * (
            u[0] * v[1] * w[1] + u[1] * v[0] * w[1] + u[1] * v[1] * w[0])

    return make_objective(dim=2, value=value, gradient=gradient,
                          hessian=hessian, third_directional=third)


def test_fd_gradient_matches_analytic():
    obj = cubic_objective()
    x = np.array([0.7, -1.3])
    assert np.allclose(fd_gradient(obj, x), obj.gradient(x), atol=1e-8)


def test_fd_hessian_matches_analytic():
    obj = cubic_objective()
    x = np.array([0.7, -1.3])
    assert np.allclose(fd_hessian(obj, x), obj.hessian(x), atol=1e-6)


def test_fd_third_matches_analytic():
    obj = cubic_objective()
    x = np.array([0.7, -1.3])
    rng = np.random.default_rng(0)
    for _ in range(5):
        u, v, w = rng.normal(size=(3, 2))
        fd = _fd_third_rows(obj, x, np.array([[u, v, w]]))[0]
        assert fd == pytest.approx(obj.third_directional(x, u, v, w),
                                   rel=1e-6, abs=1e-6)


def test_verify_derivatives_accepts_consistent_objective():
    obj = cubic_objective()
    pts = [np.array([0.3, 0.4]), np.array([-1.0, 2.0]), np.array([0.0, 0.0])]
    report = verify_derivatives(obj, pts)
    assert report.ok
    assert report.grad_err <= GRAD_TOL and report.hess_err <= HESS_TOL \
        and report.third_err <= THIRD_TOL


def test_verify_derivatives_flags_wrong_gradient():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value,
        gradient=lambda x: good.gradient(x) + np.array([0.001, 0.0]),
        hessian=good.hessian, third_directional=good.third_directional)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])])
    assert report.grad_err > GRAD_TOL
    assert not report.ok


def test_verify_derivatives_flags_wrong_hessian():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value, gradient=good.gradient,
        hessian=lambda x: good.hessian(x) + 0.01 * np.eye(2),
        third_directional=good.third_directional)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])])
    assert report.hess_err > HESS_TOL and not report.ok


def test_verify_derivatives_flags_wrong_third():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value, gradient=good.gradient,
        hessian=good.hessian,
        third_directional=lambda x, u, v, w:
            good.third_directional(x, u, v, w) + 0.5)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])])
    assert report.third_err > THIRD_TOL and not report.ok


def _nan_at(point, fn, shape):
    """fn, except at exactly `point`, where every entry is NaN."""
    def wrapped(x, *rest):
        if np.array_equal(x, point):
            return np.full(shape, np.nan) if shape else float("nan")
        return fn(x, *rest)
    return wrapped


@pytest.mark.parametrize("oracle, shape", [
    ("gradient", (2,)), ("hessian", (2, 2)), ("third_directional", ())])
def test_verify_derivatives_fails_on_nan_derivative(oracle, shape):
    # the FD stencils never evaluate at the sample point itself, so only
    # the analytic value there is NaN
    good = cubic_objective()
    point = np.array([0.3, 0.4])
    bad = replace(good, **{oracle: _nan_at(point, getattr(good, oracle), shape)})
    report = verify_derivatives(bad, [np.array([-1.0, 2.0]), point])
    errs = {"gradient": report.grad_err, "hessian": report.hess_err,
            "third_directional": report.third_err}
    assert errs[oracle] == np.inf
    assert not report.ok
    assert all(np.isfinite(e) for k, e in errs.items() if k != oracle)


def test_domain_guard_returns_infinity_outside():
    barrier = catalog("inverse_barrier").objective
    inside = np.array([0.0, 0.0])
    outside = np.array([1.0, 1.0])
    assert np.isfinite(barrier.value(inside))
    assert barrier.value(outside) == np.inf
    assert barrier.in_domain(inside)
    assert not barrier.in_domain(outside)


def test_fd_third_raises_outside_domain():
    barrier = catalog("inverse_barrier").objective
    e1 = np.array([1.0, 0.0])
    # x + h*u crosses the barrier boundary, so the Hessian probe blows up
    edge = np.array([0.49999999, 0.5])
    with pytest.raises(DomainViolation):
        _fd_third_rows(barrier, edge, np.array([[e1, e1, e1]]))
    # 5e-6 inside it, the value stencils of fd_gradient (step 1e-5) and
    # fd_hessian (step 1e-4) cross it too, and name the point outside
    near = np.array([0.5 - 5e-6, 0.5])
    for fd, x in ((fd_gradient, r"0\.500005"), (fd_hessian, r"0\.500095")):
        message = rf"^stencil point \[{x} +0\.5 +\] has non-finite value inf$"
        with pytest.raises(DomainViolation, match=message):
            fd(barrier, near)
