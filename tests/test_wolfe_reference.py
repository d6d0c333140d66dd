"""strong_wolfe_search against the closure-based search it replaced, kept
here as a reference: the same phi and dphi calls at the same points in the
same order, and the same result bits and status. The reference raises where
the search now returns NotDescent."""
from math import isfinite, nan

from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinedescent.line_search import (MAX_ZOOM, LineSearchResult,
                                       LineSearchStatus, StrongWolfeSearch,
                                       strong_wolfe_search)


class RefNotDescent(Exception):
    pass


def ref_strong_wolfe_search(phi, dphi, spec):
    dphi0 = dphi(0.0)
    if dphi0 >= 0.0:
        raise RefNotDescent(f"dphi(0) = {dphi0:g} is not negative")
    f0 = phi(0.0)
    evals = 1
    state = {"evals": evals, "best": None}   # best Armijo-satisfying (alpha, f)

    def eval_phi(alpha):
        f = phi(alpha)
        state["evals"] += 1
        if isfinite(f) and f <= f0 + spec.c1 * alpha * dphi0:
            best = state["best"]
            if best is None or f < best[1]:
                state["best"] = (alpha, f)
        return f

    def result(alpha, f, status):
        return LineSearchResult(alpha=alpha, f_new=f, evals=state["evals"],
                                status=status)

    def fallback():
        best = state["best"]
        if best is not None:
            return result(best[0], best[1], LineSearchStatus.ZOOM_FAILED)
        return result(spec.alpha0, f0, LineSearchStatus.ZOOM_FAILED)

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        for _ in range(MAX_ZOOM):
            left, right = (lo, hi) if lo < hi else (hi, lo)
            width = right - left
            if width <= 1e-16 * max(1.0, right):
                break
            trial = None
            denom = 2.0 * (f_hi - f_lo - d_lo * (hi - lo))
            if isfinite(f_hi) and denom != 0.0:
                cand = lo - d_lo * (hi - lo) ** 2 / denom
                if left + 0.1 * width < cand < right - 0.1 * width:
                    trial = cand
            if trial is None:
                trial = 0.5 * (lo + hi)
            f_t = eval_phi(trial)
            if not isfinite(f_t) or f_t > f0 + spec.c1 * trial * dphi0 or f_t >= f_lo:
                hi, f_hi = trial, f_t
            else:
                d_t = dphi(trial)
                if abs(d_t) <= -spec.c2 * dphi0:
                    return result(trial, f_t, LineSearchStatus.ACCEPTED)
                if d_t * (hi - lo) >= 0.0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = trial, f_t, d_t
        return fallback()

    alpha_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = min(spec.alpha0, spec.alpha_max)
    first = True
    while True:
        f_curr = eval_phi(alpha)
        if not isfinite(f_curr) or f_curr > f0 + spec.c1 * alpha * dphi0 or \
                (not first and f_curr >= f_prev):
            return zoom(alpha_prev, f_prev, d_prev, alpha, f_curr)
        d_curr = dphi(alpha)
        if abs(d_curr) <= -spec.c2 * dphi0:
            return result(alpha, f_curr, LineSearchStatus.ACCEPTED)
        if d_curr >= 0.0:
            return zoom(alpha, f_curr, d_curr, alpha_prev, f_prev)
        if alpha >= spec.alpha_max:
            return fallback()
        alpha_prev, f_prev, d_prev = alpha, f_curr, d_curr
        alpha = min(2.0 * alpha, spec.alpha_max)
        first = False


# -- drawn line functions ------------------------------------------------

def line_function(base, p, t, c0, wall, nan_in, nan_lo, nan_hi):
    """(phi, dphi) for one base shape, with phi = +inf from `wall` on and
    NaN in phi or dphi ("phi"/"dphi" in nan_in) on [nan_lo, nan_hi]. Both
    are finite at 0, where the slope is negative for p, t > 0 except on a
    quartic with 2 p t^2 <= 1."""
    def f(a):
        if base == "quadratic":
            return p * (a - t) ** 2 + c0
        if base == "quartic":
            return p * (a - t) ** 4 - (a - t) ** 2 + c0
        if base == "linear":   # the curvature condition is never met
            return c0 - p * a
        return c0              # flat: phi ties phi(0) at every trial

    def df(a):
        if base == "quadratic":
            return 2.0 * p * (a - t)
        if base == "quartic":
            return 4.0 * p * (a - t) ** 3 - 2.0 * (a - t)
        return -p

    def phi(a):
        if a >= wall:
            return float("inf")
        if nan_in == "phi" and nan_lo <= a <= nan_hi:
            return nan
        return f(a)

    def dphi(a):
        if nan_in == "dphi" and nan_lo <= a <= nan_hi:
            return nan
        return df(a)

    return phi, dphi


def recorded(fn, name, calls):
    def wrapper(a):
        calls.append((name, float(a).hex()))
        return fn(a)
    return wrapper


def run(search, phi, dphi, spec):
    calls = []
    try:
        res = search(recorded(phi, "phi", calls),
                     recorded(dphi, "dphi", calls), spec)
    except RefNotDescent:
        res = LineSearchResult(alpha=0.0, f_new=nan, evals=0,
                               status=LineSearchStatus.NOT_DESCENT)
    return calls, (res.alpha.hex(), res.f_new.hex(), res.evals, res.status)


@st.composite
def specs(draw):
    c1 = draw(st.floats(1e-6, 0.5))
    c2 = draw(st.floats(c1, 1.0, exclude_min=True, exclude_max=True))
    # alpha0 above alpha_max in about half the draws
    return StrongWolfeSearch(c1=c1, c2=c2, alpha0=draw(st.floats(1e-3, 20.0)),
                             alpha_max=draw(st.floats(1e-3, 20.0)))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["quadratic", "quadratic", "quartic", "quartic",
                        "linear", "flat"]),
       st.floats(1e-2, 10.0), st.floats(0.0, 10.0),
       st.sampled_from([1.0, 1.0, 1.0, 1.0, -1.0]), st.floats(-1e6, 1e6),
       st.one_of(st.just(float("inf")), st.floats(1e-3, 20.0)),
       st.sampled_from([None, None, "phi", "dphi"]), st.floats(1e-3, 20.0),
       st.floats(0.0, 2.0), specs())
@example("linear", 1.0, 0.0, 1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch(alpha_max=1.0))
@example("quadratic", 100.0, 0.05, 1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch())
@example("quadratic", 1.0, 4.0, 1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch(c2=0.1))
@example("quadratic", 1.0, 1.0, 1.0, -1.0, 2.0, None, 1.0, 0.0,
         StrongWolfeSearch())
@example("quadratic", 1.0, 1.0, -1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch())
@example("quadratic", 1.0, 0.0, 1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch())
# the first trial ties phi(0) after rounding yet has sufficient decrease
@example("flat", 0.01, 0.0, 1.0, 1e6, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch(c1=1e-6, alpha0=1e-3))
# the second expansion trial ties the first: phi(1) == phi(2)
@example("quadratic", 1.0, 1.5, 1.0, 0.0, float("inf"), None, 1.0, 0.0,
         StrongWolfeSearch(c2=0.1))
@example("quartic", 1.0, 2.0, 1.0, 0.0, 3.0, "dphi", 0.5, 0.3,
         StrongWolfeSearch(alpha0=5.0, alpha_max=2.0))
@example("quadratic", 1.0, 2.0, 1.0, 0.0, float("inf"), "phi", 0.9, 0.5,
         StrongWolfeSearch())
def test_same_calls_and_result_as_the_reference(base, p, t, sign, c0, wall,
                                                nan_in, nan_lo, nan_width,
                                                spec):
    """sign = -1 puts the minimizer behind the start or makes the slope
    positive, so the search returns NotDescent."""
    if base in ("linear", "flat"):
        p *= sign
    else:
        t *= sign
    phi, dphi = line_function(base, p, t, c0, wall, nan_in, nan_lo,
                              nan_lo + nan_width)
    assert run(strong_wolfe_search, phi, dphi, spec) == \
        run(ref_strong_wolfe_search, phi, dphi, spec)


# -- brackets too wide to square ----------------------------------------------

def falls_to_a_ledge(ledge, after):
    """phi(a) = -a up to the ledge and `after` from there on; dphi = -1, so
    the curvature condition never holds and the search must bracket the
    ledge."""
    def phi(a):
        return -a if a < ledge else after

    def dphi(a):
        return -1.0

    return phi, dphi


def test_ledge_past_the_square_root_of_the_float_maximum():
    """Squaring a zoom bracket wider than ~1.34e154 overflows. The
    reference raises OverflowError; the search bisects and returns a
    status."""
    phi, dphi = falls_to_a_ledge(1e200, 0.0)
    spec = StrongWolfeSearch(alpha_max=1e300)
    try:
        run(ref_strong_wolfe_search, phi, dphi, spec)
    except OverflowError:
        pass
    else:
        raise AssertionError("the reference no longer overflows")
    calls, (alpha, f_new, evals, status) = run(strong_wolfe_search, phi,
                                               dphi, spec)
    assert status is LineSearchStatus.ZOOM_FAILED
    assert 0.0 < float.fromhex(alpha) < 1e200
    assert float.fromhex(f_new) == -float.fromhex(alpha)
    assert evals == sum(name == "phi" for name, _ in calls)


@settings(max_examples=300, deadline=None)
@given(st.floats(-3.0, 300.0), st.sampled_from([0.0, float("inf")]),
       st.floats(-3.0, 300.0), st.floats(-3.0, 300.0), st.floats(1e-6, 0.5))
def test_wide_brackets_match_the_reference_wherever_it_returns(
        log_ledge, after, log_alpha0, log_max, c1):
    """Brackets up to 1e300 wide: wherever the reference returns, the
    search makes the same calls and returns the same bits; where the
    reference overflows, the search returns a status."""
    phi, dphi = falls_to_a_ledge(10.0 ** log_ledge, after)
    spec = StrongWolfeSearch(c1=c1, alpha0=10.0 ** log_alpha0,
                             alpha_max=10.0 ** log_max)
    try:
        want = run(ref_strong_wolfe_search, phi, dphi, spec)
    except OverflowError:
        _, (_, _, _, status) = run(strong_wolfe_search, phi, dphi, spec)
        assert isinstance(status, LineSearchStatus)
        return
    assert run(strong_wolfe_search, phi, dphi, spec) == want
