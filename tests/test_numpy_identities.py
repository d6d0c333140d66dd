"""Bitwise identities between numpy spellings that the package's 2-D hot
paths rely on: `a.dot(b)` for `a @ b`, `x[:, None] * x` for
`np.outer(x, x)` and array literals for `np.diag`. Each pair computes the
same values by the same BLAS or elementwise operation, so the package
keeps its output bits whichever it uses. A numpy or BLAS upgrade that
breaks one of them fails here by name, before it shows up as drift in
`results/` or in the benchmark's golden counts.

The identities hold where the code uses them, and not everywhere:
- Over an inner dimension of 1, dot multiplies as scalars and can give
  -0 where matmul sums from +0 and gives +0; `0.0 + a.dot(b)` is matmul's
  result there.
- A product with a matrix operand that is neither C- nor F-contiguous is
  a loop without BLAS in matmul and a BLAS call on a copy in dot. It can
  round differently, and give -0 where matmul gives +0. So the package
  keeps matmul wherever an oracle's matrix, of any layout, is an operand.
- Matrix products with an outer dimension of 1 can round differently.

The quadratics' value halves A once, at construction, in place of x at
each call."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

INNER = st.integers(2, 6)
OUTER = st.integers(1, 6)
SEEDS = st.integers(0, 2 ** 32 - 1)
# log10 of the entries' scale: tiny, ordinary and near-overflow products
SCALES = st.sampled_from([-300, -150, -5, 0, 5, 75, 150])


def draw(rng, shape, scale):
    """Entries of mixed sign over three decades around 10**scale, with an
    occasional exact zero."""
    a = rng.standard_normal(shape) * 10.0 ** (
        scale + rng.uniform(-1.5, 1.5, shape))
    a[rng.random(shape) < 0.1] = 0.0
    return a


def strided(a):
    """A view of a's values with every stride doubled."""
    padded = np.zeros(tuple(2 * s for s in a.shape))
    view = padded[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return view


def contiguous(a):
    """a as a C-ordered copy, an F-ordered copy and the transpose of an
    F-ordered copy of its transpose (a C-ordered view)."""
    return [np.ascontiguousarray(a), np.asfortranarray(a),
            np.asfortranarray(a.T).T]


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and \
        x.tobytes() == y.tobytes()


@settings(max_examples=150, deadline=None)
@given(INNER, SEEDS, SCALES)
def test_vector_dot_vector(n, seed, scale):
    rng = np.random.default_rng(seed)
    u, v = draw(rng, n, scale), draw(rng, n, scale)
    with np.errstate(all="ignore"):
        for a in (u, strided(u)):
            for b in (v, strided(v)):
                assert same_bits(a.dot(b), a @ b)
                assert same_bits(b.dot(a), a @ b)   # and it commutes


@settings(max_examples=150, deadline=None)
@given(OUTER, INNER, SEEDS, SCALES)
def test_contiguous_matrix_dot_vector(n, k, seed, scale):
    """(n, k) matrices times k-vectors, and n-vectors times (n, k)
    matrices, including transposed views."""
    rng = np.random.default_rng(seed)
    M, N = draw(rng, (n, k), scale), draw(rng, (k, n), scale)
    w, u = draw(rng, k, scale), draw(rng, n, scale)
    with np.errstate(all="ignore"):
        for A in contiguous(M) + [m.T for m in contiguous(N)]:
            for b in (w, strided(w)):
                assert same_bits(A.dot(b), A @ b)
        if n >= 2:
            for A in contiguous(M) + [m.T for m in contiguous(N)]:
                for a in (u, strided(u)):
                    assert same_bits(a.dot(A), a @ A)


@settings(max_examples=150, deadline=None)
@given(INNER, INNER, SEEDS, SCALES)
def test_matrix_dot_matrix(n, k, seed, scale):
    """(n, k) times (k, n), contiguous or transposed, and chains; every
    dimension at least 2, as the package's matrix products."""
    rng = np.random.default_rng(seed)
    M, N = draw(rng, (n, k), scale), draw(rng, (k, n), scale)
    H = draw(rng, (k, k), scale)
    with np.errstate(all="ignore"):
        for A in contiguous(M):
            for B in contiguous(N):
                assert same_bits(A.dot(B), A @ B)
            # B^T H B, as for a Hessian in a frame or through a scaling
            for Hv in contiguous(H):
                assert same_bits(A.dot(Hv).dot(A.T), A @ Hv @ A.T)
                assert same_bits(A.T.T.dot(Hv).dot(A.T), A @ Hv @ A.T)


@settings(max_examples=150, deadline=None)
@given(INNER, SEEDS, SCALES)
def test_quadratic_form_chain(n, seed, scale):
    """(0.5 x) A x + b x, as the catalog's quadratic value."""
    rng = np.random.default_rng(seed)
    x, b = draw(rng, n, scale), draw(rng, n, scale)
    A = draw(rng, (n, n), scale)
    with np.errstate(all="ignore"):
        for xv in (x, strided(x)):
            assert same_bits((0.5 * xv).dot(A).dot(xv) + b.dot(xv),
                             0.5 * xv @ A @ xv + b @ xv)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), SEEDS, SCALES, st.booleans())
def test_contraction_from_plus_zero_is_matmul(n, seed, scale, zero):
    """0.0 + v.dot(M).dot(w) is v @ M @ w in every dimension, 1 included,
    also when M is zero and the result is a signed zero."""
    rng = np.random.default_rng(seed)
    v, w = draw(rng, n, scale), draw(rng, n, scale)
    M = np.zeros((n, n)) if zero else draw(rng, (n, n), scale)
    with np.errstate(all="ignore"):
        for Mv in contiguous(M):
            assert same_bits(0.0 + float(v.dot(Mv).dot(w)), float(v @ Mv @ w))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), SEEDS, SCALES)
def test_column_times_row_is_outer(n, seed, scale):
    x = draw(np.random.default_rng(seed), n, scale)
    with np.errstate(all="ignore"):
        for a in (x, strided(x)):
            assert same_bits(a[:, None] * a, np.outer(a, a))


@settings(max_examples=150, deadline=None)
@given(st.floats(), st.floats())
def test_literal_is_diag(a, b):
    assert same_bits(np.array([[a, 0.0], [0.0, b]]), np.diag([a, b]))
    x = np.array([a, b])
    assert same_bits(np.array([[x[0], 0.0], [0.0, x[1]]]),
                     np.diag([x[0], x[1]]))


def test_special_values():
    """Signed zeros, infinities and NaNs pass through both spellings alike
    on 2-vectors and 2x2 matrices."""
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, 1e-308]
    with np.errstate(all="ignore"):
        for a in vals:
            for b in vals:
                u = np.array([a, b])
                M = np.array([[a, b], [b, -a]])
                assert same_bits(M.dot(u), M @ u)
                assert same_bits(u.dot(M), u @ M)
                assert same_bits(M.T.dot(M).dot(M), M.T @ M @ M)
                assert same_bits(u[:, None] * u, np.outer(u, u))
                for c in vals:
                    v = np.array([c, -1.0])
                    assert same_bits(u.dot(v), u @ v)
                    assert same_bits(v.dot(u), u @ v)


# -- the quadratics' halved matrix -------------------------------------------

# The diagonals of the catalog's quadratics and of make_affine_scaled's
# bowls, gamma up to 1e4.
CATALOG_DIAGONALS = [[2.0, 8.0], [1.0, 4.0], [1.0, 4.0, 9.0], [1.0, 1.0],
                     [1.0, 100.0], [1.0, 1e4], [1.0, 1e8], [1.0, 0.1369]]


def halving_is_exact(x):
    """No entry loses a bit when halved: zero, or at least 2**-1021."""
    return bool(np.all((x == 0.0) | (np.abs(x) >= 2.0 ** -1021)
                       | ~np.isfinite(x)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CATALOG_DIAGONALS), st.data())
def test_halved_matrix_quadratic_form(diagonal, data):
    """x (A/2) x + b x is (x/2) A x + b x bit for bit for every float64 x,
    subnormal entries included; the vectors x (A/2) and (x/2) A are equal
    wherever halving x is exact (a subnormal x/2 can round)."""
    n = len(diagonal)
    A = np.diag(diagonal)
    half_A = 0.5 * A
    x = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                    max_size=n)))
    with np.errstate(all="ignore"):
        assert same_bits(x.dot(half_A).dot(x) + b.dot(x),
                         (0.5 * x).dot(A).dot(x) + b.dot(x))
        if halving_is_exact(x):
            assert same_bits(x.dot(half_A), (0.5 * x).dot(A))
