"""The broadcast finite-difference and slice-scan kernels against scalar
reference loops, one stencil or scan point per small numpy operation: the
same bits, the same oracle calls at the same points in the same order, and
the same random stream."""
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from helpers import Recorder, aligned, bits, outcome, random_objective
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent import slice_centroid
from affinedescent.errors import AffineDescentError, DomainViolation
from affinedescent.numerics import build_gradient_frame
from affinedescent.objective import (THIRD_H, _fd_third_rows, fd_gradient,
                                     fd_hessian, make_objective,
                                     verify_derivatives)
from affinedescent.problems import catalog
from affinedescent.slice_centroid import (BISECT_TOL, GRID_POINTS,
                                          slice_region_2d)

DIMS = st.integers(1, 40)
SEEDS = st.integers(0, 2 ** 32 - 1)


# -- scalar reference loops ----------------------------------------------

def ref_stencil_value(obj, x):
    f = obj.value(x)
    if not np.isfinite(f):
        raise DomainViolation(f"stencil point {x} has non-finite value {f}")
    return f


def ref_fd_gradient(obj, x, h=1e-5):
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = h
        g[i] = (ref_stencil_value(obj, x + e)
                - ref_stencil_value(obj, x - e)) / (2.0 * h)
    return g


def ref_fd_hessian(obj, x, h=1e-4):
    n = obj.dim
    H = np.empty((n, n))
    f0 = ref_stencil_value(obj, x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (ref_stencil_value(obj, x + ei) - 2.0 * f0
                   + ref_stencil_value(obj, x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (ref_stencil_value(obj, x + ei + ej)
                     - ref_stencil_value(obj, x + ei - ej)
                     - ref_stencil_value(obj, x - ei + ej)
                     + ref_stencil_value(obj, x - ei - ej)) / (4.0 * h * h)
            H[i, j] = mixed
            H[j, i] = mixed
    return H


def ref_fd_third_directional(obj, x, u, v, w, h=1e-3):
    xp = x + h * u
    xm = x - h * u
    if not (obj.in_domain(xp) and obj.in_domain(xm)):
        raise DomainViolation("Hessian stencil left the domain")
    hp = obj.hessian(xp)
    hm = obj.hessian(xm)
    if not (np.all(np.isfinite(hp)) and np.all(np.isfinite(hm))):
        raise DomainViolation("Hessian stencil produced non-finite entries")
    return float(v @ (hp - hm) @ w) / (2.0 * h)


def ref_verify_derivatives(obj, points, rng, n_triples):
    """(grad_err, hess_err, third_err), one (3, dim) draw per triple."""
    grad_err = hess_err = third_err = 0.0
    for p in points:
        ga = obj.gradient(p)
        gf = ref_fd_gradient(obj, p)
        grad_err = max(grad_err, float(np.max(np.abs(ga - gf)))
                       / max(1.0, float(np.max(np.abs(ga)))))
        Ha = obj.hessian(p)
        Hf = ref_fd_hessian(obj, p)
        hess_err = max(hess_err, float(np.max(np.abs(Ha - Hf)))
                       / max(1.0, float(np.max(np.abs(Ha)))))
        for _ in range(n_triples):
            dirs = rng.standard_normal((3, obj.dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            u, v, w = dirs
            ta = obj.third_directional(p, u, v, w)
            tf = ref_fd_third_directional(obj, p, u, v, w)
            third_err = max(third_err, abs(ta - tf) / max(1.0, abs(ta)))
    return grad_err, hess_err, third_err


def ref_bisect_edge(feasible, lo, hi, lo_feasible):
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ref_slice_intervals(obj, z, C, R):
    """Feasible t-intervals of the slice, one scan point per grid value."""
    f0 = obj.value(z)
    frame = build_gradient_frame(obj.gradient(z))
    foot = z + (C / frame.grad_norm) * frame.normal
    t_hat = frame.tangent[:, 0]

    def feasible(t):
        return obj.value(foot + t * t_hat) <= f0

    n = GRID_POINTS
    grid = np.linspace(-R, R, n)
    flags = [feasible(t) for t in grid]
    intervals = []
    i = 0
    while i < n:
        if not flags[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flags[j + 1]:
            j += 1
        lo = grid[i] if i == 0 else ref_bisect_edge(
            feasible, grid[i - 1], grid[i], False)
        hi = grid[j] if j == n - 1 else ref_bisect_edge(
            feasible, grid[j], grid[j + 1], True)
        intervals.append((float(lo), float(hi)))
        i = j + 1
    return intervals


# -- the kernels against the loops ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS)
def test_fd_gradient_matches_reference_loop(dim, seed):
    obj, x = random_objective(dim, seed)
    new, ref = Recorder(obj), Recorder(obj)
    assert bits(fd_gradient(new.obj, x)) == bits(ref_fd_gradient(ref.obj, x))
    assert new.calls == ref.calls


@settings(max_examples=25, deadline=None)
@given(DIMS, SEEDS)
def test_fd_hessian_matches_reference_loop(dim, seed):
    obj, x = random_objective(dim, seed)
    new, ref = Recorder(obj), Recorder(obj)
    assert bits(fd_hessian(new.obj, x)) == bits(ref_fd_hessian(ref.obj, x))
    assert new.calls == ref.calls


@settings(max_examples=40, deadline=None)
@given(DIMS, SEEDS, st.integers(1, 12))
def test_fd_third_matches_reference_loop(dim, seed, rows):
    obj, x = random_objective(dim, seed)
    dirs = np.random.default_rng(seed).standard_normal((rows, 3, dim))
    batch, single, ref = Recorder(obj), Recorder(obj), Recorder(obj)
    got = _fd_third_rows(batch.obj, x, dirs)
    one_by_one = [_fd_third_rows(single.obj, x, dirs[k:k + 1])[0]
                  for k in range(rows)]
    want = [ref_fd_third_directional(ref.obj, x, u, v, w) for u, v, w in dirs]
    # the loops' lists of floats as float64 arrays
    assert bits(got) == bits(np.array(one_by_one)) == bits(np.array(want))
    assert batch.calls == single.calls == ref.calls


@settings(max_examples=30, deadline=None)
@given(DIMS, SEEDS, st.integers(0, 4), st.integers(0, 4), st.booleans())
def test_verify_derivatives_matches_reference_loop(dim, seed, n_triples,
                                                   n_points, as_generator):
    """One draw and one reduction per call give the per-point loop's
    errors, oracle sequences and final rng state, for 0 to 4 points given
    as a list or as a generator."""
    obj, x = random_objective(dim, seed)
    points = [s * x for s in (1.0, 0.5, -0.75, 1.5)[:n_points]]
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    new, ref = Recorder(obj), Recorder(obj)
    report = verify_derivatives(
        new.obj, (p for p in points) if as_generator else points,
        rng=rng_new, n_triples=n_triples)
    want = ref_verify_derivatives(ref.obj, points, rng_ref, n_triples)
    assert bits(tuple(report)) == bits(want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    # A point's analytic third derivatives are all taken before its Hessian
    # stencils, so only each oracle's own sequence is compared.
    for kind in Recorder.KINDS:
        assert new.of(kind) == ref.of(kind)


def test_verify_derivatives_nan_gradient_at_one_point_fails():
    obj, x = random_objective(3, 5)
    bad = 0.5 * x
    gradient = obj.gradient
    obj = replace(obj, gradient=lambda p: np.full(3, np.nan)
                  if np.array_equal(p, bad) else gradient(p))
    points = [x, bad, -x]
    report = verify_derivatives(obj, points, rng=np.random.default_rng(1))
    want = ref_verify_derivatives(obj, points, np.random.default_rng(1), 10)
    assert report.grad_err == np.inf
    assert report.ok is False
    assert bits(report[1:]) == bits(want[1:])


def test_verify_derivatives_of_no_points_passes():
    obj, _ = random_objective(2, 0)
    rng = np.random.default_rng(9)
    report = verify_derivatives(obj, [], rng=rng)
    assert (report.grad_err, report.hess_err, report.third_err) == (0, 0, 0)
    assert report.ok is True
    assert rng.bit_generator.state == \
        np.random.default_rng(9).bit_generator.state


def test_verify_derivatives_matches_reference_on_catalog():
    rng = np.random.default_rng(3)
    for name in ("poly6", "rosenbrock", "quad_52", "inverse_barrier"):
        problem = catalog(name)
        points = [problem.x0 if name != "inverse_barrier"
                  else np.array([-0.2, -0.2])]
        points.append(points[0] + 0.1 * rng.uniform(-1.0, 1.0,
                                                    problem.objective.dim))
        rng_new = np.random.default_rng(42)
        rng_ref = np.random.default_rng(42)
        report = verify_derivatives(problem.objective, points, rng=rng_new)
        want = ref_verify_derivatives(problem.objective, points, rng_ref, 10)
        assert bits(tuple(report)) == bits(want), name
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# -- non-finite and overflowing Hessian differences ---------------------------

SPECIAL = [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), SEEDS, st.integers(1, 4),
       st.sampled_from(["finite", "equal", "special"]),
       st.sampled_from(["warn", "ignore"]))
def test_fd_third_on_non_finite_and_overflowing_differences(
        dim, seed, rows, kind, errors):
    """The Hessian is H+ where x[0] > 0 and H- elsewhere, and every u has
    u[0] > 0, so each row differences H+ and H-: equal (a zero difference,
    whose sign must survive in one dimension), finite, or with entries
    that are NaN, infinite, or +-1e308 (finite, but the difference
    overflows). With warnings raised or ignored, the kernel gives the
    reference's bits, or its error type and message, with the same
    warnings and oracle calls."""
    rng = np.random.default_rng(seed)
    H_plus, H_minus = rng.standard_normal((2, dim, dim))
    if kind == "equal":
        H_minus = H_plus.copy()
    elif kind == "special":
        for H in (H_plus, H_minus):
            hit = rng.random((dim, dim)) < 0.5
            H[hit] = rng.choice(SPECIAL, hit.sum())
    obj = make_objective(
        dim, value=lambda x: 0.0, gradient=lambda x: np.zeros(dim),
        hessian=lambda x: (H_plus if x[0] > 0.0 else H_minus).copy(),
        third_directional=lambda x, u, v, w: 0.0)
    dirs = rng.standard_normal((rows, 3, dim))
    dirs[:, 0, 0] = np.abs(dirs[:, 0, 0]) + 0.1
    x = np.zeros(dim)
    new, ref = Recorder(obj), Recorder(obj)
    with np.errstate(all=errors):
        # matmul's warnings named after dot's, and the loop's list of
        # floats as a float64 array
        got = aligned(outcome(_fd_third_rows, new.obj, x, dirs))
        want = aligned(outcome(lambda: np.array(
            [ref_fd_third_directional(ref.obj, x, u, v, w)
             for u, v, w in dirs])))
    assert got == want
    assert new.calls == ref.calls


# -- one triple's stencil leaves the domain ------------------------------------

def test_third_kernel_raises_at_the_row_whose_stencil_leaves():
    obj, _ = random_objective(3, 7, in_domain=lambda x: x[0] < 1.0)
    x = np.array([1.0 - 5e-4, 0.2, -0.1])
    dirs = np.random.default_rng(7).standard_normal((4, 3, 3))
    dirs[:, 0, 0] = 0.0          # u rows stay inside ...
    dirs[2, 0] = [1.0, 0.0, 0.0]  # ... except row 2, whose x + h u leaves
    new, ref = Recorder(obj), Recorder(obj)
    with pytest.raises(DomainViolation):
        _fd_third_rows(new.obj, x, dirs)
    with pytest.raises(DomainViolation):
        for u, v, w in dirs:
            ref_fd_third_directional(ref.obj, x, u, v, w)
    assert new.calls == ref.calls
    assert len(new.of("hessian")) == 4   # rows 0 and 1 only


def test_verify_derivatives_raises_when_one_triple_leaves_the_domain():
    dim, n_triples = 3, 10
    draws = np.random.default_rng(11).standard_normal((n_triples, 3, dim))
    reach = np.sort(np.abs(draws[:, 0, 0])
                    / np.linalg.norm(draws[:, 0], axis=1)) * THIRD_H
    margin = 0.5 * (reach[-1] + reach[-2])   # only the widest stencil leaves
    assert margin > 3e-4   # the gradient and Hessian stencils stay inside
    obj, _ = random_objective(dim, 11, in_domain=lambda x: x[0] < 1.0)
    p = np.array([1.0 - margin, 0.3, 0.1])
    new, ref = Recorder(obj), Recorder(obj)
    with pytest.raises(DomainViolation):
        verify_derivatives(new.obj, [p], rng=np.random.default_rng(11),
                           n_triples=n_triples)
    with pytest.raises(DomainViolation):
        ref_verify_derivatives(ref.obj, [p], np.random.default_rng(11),
                               n_triples)
    for kind in ("value", "gradient", "hessian", "in_domain"):
        assert new.of(kind) == ref.of(kind)


# -- the slice scan ------------------------------------------------------------

TWO_D = ["quad_well", "quad_51", "convex_53", "poly6", "inverse_barrier",
         "rosenbrock", "ring_tilted", "saddle_poly", "four_well",
         "counterexample", "strongly_convex_base"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TWO_D), SEEDS, st.sampled_from([-1e-2, -1e-4, 1e-2]),
       st.floats(0.1, 3.0), st.none() | st.floats(5.0, 60.0))
def test_slice_scan_matches_reference_loop(name, seed, C, R, holes):
    """With holes, value is NaN or +inf in bands across the scan line;
    both compare as infeasible."""
    problem = catalog(name)
    z = problem.x0 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
    obj = problem.objective
    if holes is not None:
        def holed(x, value=obj.value):
            s = np.sin(holes * (x[0] - z[0]) + 0.7 * holes * (x[1] - z[1]))
            return np.nan if s > 0.8 else np.inf if s < -0.8 else value(x)

        obj = replace(obj, value=holed)
    new, ref = Recorder(obj), Recorder(obj)

    def scan():   # at half-width R, in place of the automatic window
        with mock.patch.object(slice_centroid, "_auto_window",
                               lambda obj, z, offset, frame: R):
            return slice_region_2d(new.obj, z, C)

    try:
        want = ref_slice_intervals(ref.obj, z, C, R)
    except AffineDescentError as exc:   # e.g. a zero gradient at z
        with pytest.raises(type(exc)):
            scan()
        return
    if not want:
        with pytest.raises(AffineDescentError):
            scan()
    else:
        region = scan()
        assert bits(region.intervals) == bits(want)
    assert new.calls == ref.calls

