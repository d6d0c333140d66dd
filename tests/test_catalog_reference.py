"""The catalog's oracles and compose_scaled against reference copies written
with matmul, np.outer, np.diag, np.eye and np.ones, as they were before the
2-D hot paths moved to ndarray.dot and hoisted constants: the same bits,
the same warnings (up to the name of the numpy function that issued them),
or the same error type and message.

One behaviour was fixed since: poly6's q and ring_tilted's p were Python
floats, so q ** 3 and p ** 2 raised a bare OverflowError where the other
problems give numpy's inf and warning. The references here compute them as
numpy scalars, as the catalog does now. And compose_scaled's Hessian
multiplies by B^T and B without numpy's overflow and invalid-value warnings,
since the run reports a non-finite Hessian as NonFiniteHessian; the
reference does the same, while the base Hessian still warns as before."""
import numpy as np
from helpers import aligned, bits, outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from affinedescent.invariance import compose_scaled
from affinedescent.objective import make_objective
from affinedescent.problems import CATALOG_NAMES, catalog, make_affine_scaled

# -- reference closures ----------------------------------------------------


def ref_quadratic(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)

    def value(x):
        return float(0.5 * x @ A @ x + b @ x)

    def gradient(x):
        return A @ x + b

    def hessian(x):
        return A.copy()

    def third(x, u, v, w):
        return 0.0

    return value, gradient, hessian, third


def ref_convex_53():
    def value(x):
        return float(0.5 * x[0] ** 2 + 2.0 * x[1] ** 2 + x[0] ** 4 / 12.0)

    def gradient(x):
        return np.array([x[0] + x[0] ** 3 / 3.0, 4.0 * x[1]])

    def hessian(x):
        return np.diag([1.0 + x[0] ** 2, 4.0])

    def third(x, u, v, w):
        return float(2.0 * x[0] * u[0] * v[0] * w[0])

    return value, gradient, hessian, third


def ref_poly6():
    Q = np.diag([2.0, 8.0])
    lin = np.array([0.01, 0.02])

    def q(x):
        return x[0] ** 2 + 4.0 * x[1] ** 2

    def gq(x):
        return np.array([2.0 * x[0], 8.0 * x[1]])

    def value(x):
        return float(q(x) ** 3 + 0.1 * (x[0] ** 2 + x[1] ** 2) + lin @ x)

    def gradient(x):
        return 3.0 * q(x) ** 2 * gq(x) + 0.2 * x + lin

    def hessian(x):
        g = gq(x)
        return 6.0 * q(x) * np.outer(g, g) + 3.0 * q(x) ** 2 * Q + 0.2 * np.eye(2)

    def third(x, u, v, w):
        g = gq(x)
        gu, gv, gw = float(g @ u), float(g @ v), float(g @ w)
        return float(6.0 * gu * gv * gw + 6.0 * q(x) * (
            float(u @ Q @ w) * gv + float(v @ Q @ w) * gu + float(u @ Q @ v) * gw))

    return value, gradient, hessian, third


def ref_inverse_barrier():
    mu = 1.0

    def slack(x):
        return 1.0 - x[0] - x[1]

    def value(x):
        return float(0.5 * (x[0] ** 2 + x[1] ** 2) + mu / slack(x))

    def gradient(x):
        u = slack(x)
        return x + (mu / u ** 2) * np.ones(2)

    def hessian(x):
        u = slack(x)
        return np.eye(2) + (2.0 * mu / u ** 3) * np.ones((2, 2))

    def third(x, u, v, w):
        s = slack(x)
        return float((6.0 * mu / s ** 4) * (u[0] + u[1]) * (v[0] + v[1])
                     * (w[0] + w[1]))

    return value, gradient, hessian, third


def ref_rosenbrock():
    def value(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    def gradient(x):
        return np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    def hessian(x):
        return np.array([
            [1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
            [-400.0 * x[0], 200.0],
        ])

    def third(x, u, v, w):
        return float(2400.0 * x[0] * u[0] * v[0] * w[0]
                     - 400.0 * (u[0] * v[0] * w[1] + u[0] * v[1] * w[0]
                                + u[1] * v[0] * w[0]))

    return value, gradient, hessian, third


def ref_ring_tilted():
    tilt = 0.1

    def p(x):
        return x[0] ** 2 + x[1] ** 2 - 1.0

    def value(x):
        return float(p(x) ** 2 + tilt * x[0])

    def gradient(x):
        return 4.0 * p(x) * x + np.array([tilt, 0.0])

    def hessian(x):
        return 4.0 * p(x) * np.eye(2) + 8.0 * np.outer(x, x)

    def third(x, u, v, w):
        return float(8.0 * (float(x @ w) * float(u @ v)
                            + float(u @ w) * float(x @ v)
                            + float(v @ w) * float(x @ u)))

    return value, gradient, hessian, third


def ref_saddle_poly():
    def value(x):
        return float(x[0] ** 4 - x[0] ** 2 + x[1] ** 2)

    def gradient(x):
        return np.array([4.0 * x[0] ** 3 - 2.0 * x[0], 2.0 * x[1]])

    def hessian(x):
        return np.diag([12.0 * x[0] ** 2 - 2.0, 2.0])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0])

    return value, gradient, hessian, third


def ref_four_well():
    def value(x):
        return float((x[0] ** 2 - 1.0) ** 2 + (x[1] ** 2 - 1.0) ** 2)

    def gradient(x):
        return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0),
                         4.0 * x[1] * (x[1] ** 2 - 1.0)])

    def hessian(x):
        return np.diag([12.0 * x[0] ** 2 - 4.0, 12.0 * x[1] ** 2 - 4.0])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0]
                     + 24.0 * x[1] * u[1] * v[1] * w[1])

    return value, gradient, hessian, third


def ref_counterexample():
    def value(x):
        return float((x[0] ** 2 - 1.0) ** 2 + x[1] - 1.0)

    def gradient(x):
        return np.array([4.0 * x[0] * (x[0] ** 2 - 1.0), 1.0])

    def hessian(x):
        return np.diag([12.0 * x[0] ** 2 - 4.0, 0.0])

    def third(x, u, v, w):
        return float(24.0 * x[0] * u[0] * v[0] * w[0])

    return value, gradient, hessian, third


def ref_strongly_convex_base():
    def value(x):
        return float(0.5 * (x[0] ** 2 + x[1] ** 2)
                     + (x[0] ** 4 + x[1] ** 4) / 12.0)

    def gradient(x):
        return np.array([x[0] + x[0] ** 3 / 3.0, x[1] + x[1] ** 3 / 3.0])

    def hessian(x):
        return np.diag([1.0 + x[0] ** 2, 1.0 + x[1] ** 2])

    def third(x, u, v, w):
        return float(2.0 * x[0] * u[0] * v[0] * w[0]
                     + 2.0 * x[1] * u[1] * v[1] * w[1])

    return value, gradient, hessian, third


QUADRATICS = {
    "quad_well": (np.diag([2.0, 8.0]), np.array([0.1, 0.2])),
    "quad_51": (np.diag([1.0, 4.0]), np.array([-1.0, -4.0])),
    "quad_52": (np.diag([1.0, 4.0, 9.0]), np.array([-1.0, 0.0, 0.0])),
}
REFERENCES = {
    **{name: (lambda A=A, b=b: ref_quadratic(A, b))
       for name, (A, b) in QUADRATICS.items()},
    "convex_53": ref_convex_53,
    "poly6": ref_poly6,
    "inverse_barrier": ref_inverse_barrier,
    "rosenbrock": ref_rosenbrock,
    "ring_tilted": ref_ring_tilted,
    "saddle_poly": ref_saddle_poly,
    "four_well": ref_four_well,
    "counterexample": ref_counterexample,
    "strongly_convex_base": ref_strongly_convex_base,
}


def reference_objective(name):
    """The reference closures with the catalog problem's domain."""
    value, gradient, hessian, third = REFERENCES[name]()
    obj = catalog(name).objective
    in_domain = None if name != "inverse_barrier" else obj.in_domain
    return make_objective(obj.dim, value, gradient, hessian, third, in_domain)


def ref_compose_scaled(base, B):
    """compose_scaled's closures as they were, all with matmul."""
    B = np.asarray(B, dtype=float)
    phi = base.objective

    def value(x):
        return phi.value(B @ x)

    def gradient(x):
        return B.T @ phi.gradient(B @ x)

    def hessian(x):
        H = phi.hessian(B @ x)
        with np.errstate(over="ignore", invalid="ignore"):
            return B.T @ H @ B

    def third(x, u, v, w):
        return phi.third_directional(B @ x, B @ u, B @ v, B @ w)

    def in_domain(x):
        return phi.in_domain(B @ x)

    return make_objective(phi.dim, value, gradient, hessian, third, in_domain)


# -- comparison ------------------------------------------------------------

ORACLES = ("value", "gradient", "hessian", "third_directional", "in_domain")


def assert_same_oracles(new, ref, x, u, v, w):
    """The same bits, error or warnings, up to the name of the numpy
    function that issued them (`aligned`)."""
    for kind in ORACLES:
        args = (x, u, v, w) if kind == "third_directional" else (x,)
        assert aligned(outcome(getattr(new, kind), *args)) == \
            aligned(outcome(getattr(ref, kind), *args)), kind


# -- drawn points ------------------------------------------------------------

def magnitudes(rng, dim):
    """Entries that are each +-0, ordinary (|a| <= 3) or +-10**e with e
    uniform over the whole double range, from the subnormals to 1.8e308."""
    kind = rng.integers(0, 3, dim)
    a = np.where(kind == 0, rng.choice([0.0, -0.0], dim),
                 np.where(kind == 1, rng.uniform(-3.0, 3.0, dim),
                          rng.choice([-1.0, 1.0], dim)
                          * 10.0 ** rng.uniform(-323.5, 308.25, dim)))
    return a


def other_point(rng, dim):
    """An x that is not a float64 vector of length dim: float32 (entries
    past its range become +-inf), int64 up to +-1e18, or a float64 vector
    with one entry too many."""
    kind = rng.integers(3)
    if kind == 0:
        with np.errstate(over="ignore"):
            return magnitudes(rng, dim).astype(np.float32)
    if kind == 1:
        return rng.integers(-10 ** 18, 10 ** 18, dim) \
            // 10 ** rng.integers(0, 19, dim)
    return magnitudes(rng, dim + 1)


def layout(a, kind):
    """a as a contiguous vector, a strided view, or a row of an F-ordered
    matrix (strided too)."""
    if kind == "strided":
        padded = np.zeros(2 * a.size)
        padded[::2] = a
        return padded[::2]
    if kind == "fortran-row":
        return np.asfortranarray(np.stack([a, -a]))[0]
    return a


LAYOUTS = ("contiguous", "strided", "fortran-row")
SEEDS = st.integers(0, 2 ** 32 - 1)


def vectors(rng, dim):
    """Four vectors x, u, v, w, each in a random layout."""
    return [layout(magnitudes(rng, dim), LAYOUTS[rng.integers(3)])
            for _ in range(4)]


# -- the catalog -------------------------------------------------------------

def test_references_cover_the_catalog():
    assert sorted(REFERENCES) == sorted(CATALOG_NAMES)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_oracles_match_reference(seed):
    """One drawn point per problem and example. Also: every Hessian call
    returns an array of its own, so that a caller writing into one changes
    no other."""
    rng = np.random.default_rng(seed)
    for name in CATALOG_NAMES:
        new = catalog(name).objective
        x, u, v, w = vectors(rng, new.dim)
        assert_same_oracles(new, reference_objective(name), x, u, v, w)
        # Inputs other than a float64 vector of the problem's length. (A
        # quadratic's value at a float32 x is its value at the float64 x,
        # not the reference's; see test_problems.)
        if name not in QUADRATICS:
            assert_same_oracles(new, reference_objective(name),
                                other_point(rng, new.dim), u, v, w)
        with np.errstate(all="ignore"):
            try:
                first = new.hessian(x)
            except OverflowError:
                continue
            second = new.hessian(x)
            assert not np.shares_memory(first, second)
            want = bits(second)
            first[...] = 7.0
            second[...] = 7.0
            assert bits(new.hessian(x)) == want, name


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_array_likes_accepted_as_before(seed):
    """Any argument the reference oracles took as a list or tuple is still
    taken, with the same result."""
    rng = np.random.default_rng(seed)
    for name in CATALOG_NAMES:
        new = catalog(name).objective
        ref = reference_objective(name)
        args = dict(zip("xuvw", rng.uniform(-3.0, 3.0, (4, new.dim))))
        for k in "xuvw":
            if rng.random() < 0.5:
                args[k] = (list, tuple)[rng.integers(2)](args[k].tolist())
        for kind in ORACLES:
            call = (args["x"], args["u"], args["v"], args["w"]) \
                if kind == "third_directional" else (args["x"],)
            want = aligned(outcome(getattr(ref, kind), *call))
            if want[0][0] is not TypeError:
                assert aligned(outcome(getattr(new, kind), *call)) == want, \
                    (name, kind)


def test_quadratic_optimum_values_match_reference():
    """f_star of each quadratic problem is the value formula written out,
    as it was before it came from the objective."""
    problems = [(catalog(name), A, b) for name, (A, b) in QUADRATICS.items()]
    for gamma in (1.0, 10.0, 1e2, 1e3, 1e4, 0.37):
        scaled, _ = make_affine_scaled(gamma)
        problems.append((scaled, np.diag([1.0, gamma * gamma]), np.zeros(2)))
    for problem, A, b in problems:
        xs = np.linalg.solve(A, -b)
        want = float(0.5 * xs @ A @ xs + b @ xs)
        assert bits(problem.f_star) == bits(want), problem.name
        assert bits(problem.x_star) == bits(xs)


# -- compose_scaled ----------------------------------------------------------

@st.composite
def scalings(draw, dim):
    """A B with det(B) > 0, entries over six decades, C- or F-contiguous.
    (For a B that is neither, dot multiplies by a contiguous copy where
    matmul ran a loop of its own, so the bits may differ; no caller passes
    such a B.)"""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    B = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-3, 3)
    if np.linalg.det(B) <= 0.0:
        B[0] = -B[0]
    kind = draw(st.sampled_from(["C", "F", "transposed"]))
    if kind == "F":
        return np.asfortranarray(B)
    if kind == "transposed":
        return np.ascontiguousarray(B.T).T
    return B


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(CATALOG_NAMES))
def test_compose_scaled_matches_reference(data, name):
    base = catalog(name)
    B = data.draw(scalings(base.objective.dim))
    new = compose_scaled(base, B)
    ref = ref_compose_scaled(base, B)
    x, u, v, w = vectors(np.random.default_rng(data.draw(SEEDS)),
                         base.objective.dim)
    assert_same_oracles(new.objective, ref, x, u, v, w)
    lists = [a.tolist() for a in (x, u, v, w)]
    assert_same_oracles(new.objective, ref, *lists)
    Binv = np.linalg.inv(np.asarray(B, dtype=float))
    assert bits(new.x0) == bits(Binv @ base.x0)
    if base.x_star is not None:
        assert bits(new.x_star) == bits(Binv @ base.x_star)
    assert bits(new.f_star) == bits(base.f_star)
