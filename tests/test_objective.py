from dataclasses import replace

import numpy as np
import pytest
from helpers import Recorder, bits, outcome, random_objective

from affinedescent.errors import DomainViolation
from affinedescent.objective import (GRAD_TOL, HESS_TOL, THIRD_H, THIRD_TOL,
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
    report = verify_derivatives(obj, pts, rng=np.random.default_rng(42))
    assert report.ok
    assert report.grad_err <= GRAD_TOL and report.hess_err <= HESS_TOL \
        and report.third_err <= THIRD_TOL


def test_verify_derivatives_flags_wrong_gradient():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value,
        gradient=lambda x: good.gradient(x) + np.array([0.001, 0.0]),
        hessian=good.hessian, third_directional=good.third_directional)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])],
                                rng=np.random.default_rng(42))
    assert report.grad_err > GRAD_TOL
    assert not report.ok


def test_verify_derivatives_flags_wrong_hessian():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value, gradient=good.gradient,
        hessian=lambda x: good.hessian(x) + 0.01 * np.eye(2),
        third_directional=good.third_directional)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])],
                                rng=np.random.default_rng(42))
    assert report.hess_err > HESS_TOL and not report.ok


def test_verify_derivatives_flags_wrong_third():
    good = cubic_objective()
    bad = make_objective(
        dim=2, value=good.value, gradient=good.gradient,
        hessian=good.hessian,
        third_directional=lambda x, u, v, w:
            good.third_directional(x, u, v, w) + 0.5)
    report = verify_derivatives(bad, [np.array([0.3, 0.4])],
                                rng=np.random.default_rng(42))
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
    report = verify_derivatives(bad, [np.array([-1.0, 2.0]), point],
                                rng=np.random.default_rng(42))
    errs = {"gradient": report.grad_err, "hessian": report.hess_err,
            "third_directional": report.third_err}
    assert errs[oracle] == np.inf
    assert not report.ok
    assert all(np.isfinite(e) for k, e in errs.items() if k != oracle)


def test_verify_derivatives_nan_gradient_at_one_point_fails():
    """A NaN gradient at the middle point of three makes grad_err inf and
    leaves the other two errors at the clean check's bits."""
    good, x = random_objective(3, 5)
    bad_point = 0.5 * x
    bad = replace(good, gradient=_nan_at(bad_point, good.gradient, (3,)))
    points = [x, bad_point, -x]
    report = verify_derivatives(bad, points, rng=np.random.default_rng(1))
    clean = verify_derivatives(good, points, rng=np.random.default_rng(1))
    assert report.grad_err == np.inf
    assert report.ok is False
    assert bits(report[1:]) == bits(clean[1:])


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


# -- oracle calls and the random stream ------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 5])
def test_fd_kernels_call_the_value_oracle_2n_and_2n2_plus_1_times(dim):
    """fd_gradient evaluates f at x +- h e_i; fd_hessian at x, x +- h e_i
    and the four corners x +- h e_i +- h e_j for each i < j."""
    obj, x = random_objective(dim, dim)
    rec = Recorder(obj)
    fd_gradient(rec.obj, x)
    assert [c[0] for c in rec.calls] == ["value"] * (2 * dim)
    rec.calls.clear()
    fd_hessian(rec.obj, x)
    assert [c[0] for c in rec.calls] == ["value"] * (2 * dim * dim + 1)


@pytest.mark.parametrize("n_points, n_triples", [(1, 0), (2, 10), (4, 3)])
def test_verify_derivatives_draws_every_triple_in_one_block(n_points,
                                                            n_triples):
    """After the check, rng is where one (points, n_triples, 3, dim) draw
    leaves a fresh generator, for points given as a list or a generator."""
    obj, x = random_objective(3, n_points)
    points = [s * x for s in (1.0, 0.5, -0.75, 1.5)[:n_points]]
    want = np.random.default_rng(7)
    want.standard_normal((n_points, n_triples, 3, 3))
    for given_points in (points, iter(points)):
        rng = np.random.default_rng(7)
        verify_derivatives(obj, given_points, rng=rng, n_triples=n_triples)
        assert rng.bit_generator.state == want.bit_generator.state


def test_verify_derivatives_of_no_points_passes():
    obj, _ = random_objective(2, 0)
    rng = np.random.default_rng(9)
    report = verify_derivatives(obj, [], rng=rng)
    assert (report.grad_err, report.hess_err, report.third_err) == (0, 0, 0)
    assert report.ok is True
    assert rng.bit_generator.state == \
        np.random.default_rng(9).bit_generator.state


# -- the third-derivative stencil leaves the domain -------------------------

def test_third_kernel_raises_at_the_row_whose_stencil_leaves():
    """Rows are evaluated in order, and the Hessian is never evaluated at a
    row whose stencil point is outside the domain."""
    obj, _ = random_objective(3, 7, in_domain=lambda x: x[0] < 1.0)
    x = np.array([1.0 - 5e-4, 0.2, -0.1])
    dirs = np.random.default_rng(7).standard_normal((4, 3, 3))
    dirs[:, 0, 0] = 0.0          # u rows stay inside ...
    dirs[2, 0] = [1.0, 0.0, 0.0]  # ... except row 2, whose x + h u leaves
    rec = Recorder(obj)
    with pytest.raises(DomainViolation,
                       match="^Hessian stencil left the domain$"):
        _fd_third_rows(rec.obj, x, dirs)
    stencil = [x + sign * THIRD_H * dirs[k, 0] for k in (0, 1)
               for sign in (1.0, -1.0)]
    assert rec.of("hessian") == [("hessian", p.tobytes()) for p in stencil]


def test_verify_derivatives_raises_when_one_triple_leaves_the_domain():
    """Only the widest of ten third-derivative stencils leaves the domain:
    the value stencils of the gradient and the Hessian (2n and 2n^2 + 1
    points) are complete, the Hessian is evaluated at the point and at the
    rows before the widest, and rng has advanced past every triple."""
    dim, n_triples = 3, 10
    draws = np.random.default_rng(11).standard_normal((n_triples, 3, dim))
    reach = np.abs(draws[:, 0, 0]) / np.linalg.norm(draws[:, 0], axis=1) \
        * THIRD_H
    widest = int(np.argmax(reach))
    margin = 0.5 * (reach[widest] + np.sort(reach)[-2])
    assert margin > 3e-4   # the gradient and Hessian stencils stay inside
    obj, _ = random_objective(dim, 11, in_domain=lambda x: x[0] < 1.0)
    p = np.array([1.0 - margin, 0.3, 0.1])
    rec = Recorder(obj)
    rng = np.random.default_rng(11)
    with pytest.raises(DomainViolation):
        verify_derivatives(rec.obj, [p], rng=rng, n_triples=n_triples)
    assert len(rec.of("value")) == 2 * dim + 2 * dim * dim + 1
    assert len(rec.of("hessian")) == 1 + 2 * widest
    want = np.random.default_rng(11)
    want.standard_normal((1, n_triples, 3, dim))
    assert rng.bit_generator.state == want.bit_generator.state


# -- non-finite and overflowing Hessian differences -------------------------

SPECIAL = [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]
HUGE = [1e308, -1e308, 0.0, -0.0, 1.0]


def test_fd_third_on_non_finite_and_overflowing_differences():
    """The Hessian is H+ where x[0] > 0 and H- elsewhere, and every u has
    u[0] > 0, so each row differences H+ and H-: equal, finite, with some
    entries NaN, infinite or +-1e308, or with entries +-1e308, +-0 and 1
    (finite, but the difference may overflow), in 1 to 4 dimensions with 1
    to 4 rows, with numpy's warnings on or off. The outcome is typed:
    - a non-finite entry raises DomainViolation at the first row, after its
      two Hessian calls and before any warning;
    - equal Hessians give +0.0 in every row, in one dimension too;
    - otherwise each row is a float64, v.(H+ - H-)w / 2h for finite
      Hessians. Warnings come only where they are on, and only from
      numpy: an overflow in the subtraction, once per row, where the
      difference overflows, and an overflow or invalid value in the
      contraction."""
    subtract = (RuntimeWarning, "overflow encountered in subtract")
    numpy_warnings = {subtract,
                      (RuntimeWarning, "overflow encountered in dot"),
                      (RuntimeWarning, "invalid value encountered in dot")}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        dim, rows = rng.integers(1, 5, 2)
        kind = ("finite", "equal", "special", "huge")[seed % 4]
        errors = ("warn", "ignore")[seed // 4 % 2]
        H_plus, H_minus = rng.standard_normal((2, dim, dim))
        if kind == "equal":
            H_minus = H_plus.copy()
        elif kind == "special":
            for H in (H_plus, H_minus):
                hit = rng.random((dim, dim)) < 0.5
                H[hit] = rng.choice(SPECIAL, hit.sum())
        elif kind == "huge":
            H_plus, H_minus = rng.choice(HUGE, (2, dim, dim))
        obj = make_objective(
            dim, value=lambda x: 0.0, gradient=lambda x: np.zeros(dim),
            hessian=lambda x, Hp=H_plus, Hm=H_minus:
                (Hp if x[0] > 0.0 else Hm).copy(),
            third_directional=lambda x, u, v, w: 0.0)
        dirs = rng.standard_normal((rows, 3, dim))
        dirs[:, 0, 0] = np.abs(dirs[:, 0, 0]) + 0.1
        rec = Recorder(obj)
        with np.errstate(all=errors):
            out, caught = outcome(_fd_third_rows, rec.obj, np.zeros(dim),
                                  dirs)
        kinds = [c[0] for c in rec.calls]
        if not (np.isfinite(H_plus).all() and np.isfinite(H_minus).all()):
            assert out == (DomainViolation,
                           "Hessian stencil produced non-finite entries")
            assert caught == [], seed
            assert kinds == ["in_domain", "in_domain", "hessian", "hessian"]
            continue
        assert kinds == ["in_domain", "in_domain", "hessian", "hessian"] \
            * rows
        with np.errstate(all="ignore"):
            D = H_plus - H_minus
            got = _fd_third_rows(obj, np.zeros(dim), dirs)
        assert out == bits(got), seed
        assert got.dtype == np.float64 and got.shape == (rows,)
        assert set(caught) <= numpy_warnings, seed
        assert caught.count(subtract) == (
            rows if errors == "warn" and not np.isfinite(D).all() else 0)
        assert errors == "warn" or caught == [], seed
        if kind == "equal":
            assert bits(got) == bits(np.zeros(rows)), seed
        elif kind == "finite":
            want = [v @ D @ w / (2.0 * THIRD_H) for _, v, w in dirs]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), seed
