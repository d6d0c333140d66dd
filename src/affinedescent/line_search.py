"""Step-size selection along a fixed ray.

phi is the one-dimensional restriction alpha -> f(x + alpha*d). Values of
+inf mark points outside the objective's domain and are never accepted;
the exact search first shrinks its upper bound to a finite value, and the
backtracking/bracketing rules reject them through ordinary comparisons.
Every outcome, failures included, is reported as a LineSearchResult status.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite, nan, sqrt
from typing import Callable

from .numerics import positive_finite

Phi = Callable[[float], float]

_GOLDEN = 0.5 * (3.0 - sqrt(5.0))   # minor golden ratio, ~0.382


@dataclass(frozen=True)
class ExactSearch:
    alpha_max: float = 10.0

    def __post_init__(self):
        positive_finite("alpha_max", self.alpha_max)


@dataclass(frozen=True)
class ArmijoSearch:
    sigma: float = 1e-4
    beta: float = 0.5
    alpha0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must be in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        positive_finite("alpha0", self.alpha0)


@dataclass(frozen=True)
class StrongWolfeSearch:
    c1: float = 1e-4
    c2: float = 0.9
    alpha0: float = 1.0
    alpha_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("need 0 < c1 < c2 < 1")
        positive_finite("alpha0", self.alpha0)
        positive_finite("alpha_max", self.alpha_max)


@dataclass(frozen=True)
class FixedStep:
    alpha: float

    def __post_init__(self):
        positive_finite("alpha", self.alpha)


LineSearchSpec = ExactSearch | ArmijoSearch | StrongWolfeSearch


class LineSearchStatus(Enum):
    ACCEPTED = "Accepted"
    MAX_BACKTRACKS = "MaxBacktracks"
    ZOOM_FAILED = "ZoomFailed"
    MAX_EXACT_STEPS = "MaxExactSteps"
    NOT_DESCENT = "NotDescent"
    NO_FINITE_STEP = "NoFiniteStep"


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    f_new: float
    evals: int      # phi calls, none on NotDescent (dphi calls not counted)
    status: LineSearchStatus


MAX_BACKTRACKS = 60
MAX_ZOOM = 50
MAX_EXACT_STEPS = 500
# Final bracket width of the exact search.
EXACT_TOL = 1e-10


def exact_search(phi: Phi, alpha_max: float) -> LineSearchResult:
    """Derivative-free minimization of phi on [0, U], U <= alpha_max.

    U is halved until phi(U) is finite, then a golden-section bracket is
    shrunk to width EXACT_TOL, with parabolic-interpolation trial points taken
    whenever the three best iterates admit a vertex strictly inside the
    bracket (this resolves quadratic phi to machine precision). Returns
    the best evaluated point, with status MaxExactSteps when the bracket
    is still wider than EXACT_TOL after MAX_EXACT_STEPS trial points, and
    alpha 0 with status NoFiniteStep when phi(0) is not finite or U falls
    below 1e-16 alpha_max. Raises ValueError unless 0 < alpha_max < inf,
    since halving a NaN or infinite bound never ends.
    """
    positive_finite("alpha_max", alpha_max)
    f0 = phi(0.0)
    evals = 1
    if not isfinite(f0):
        return LineSearchResult(alpha=0.0, f_new=f0, evals=evals,
                                status=LineSearchStatus.NO_FINITE_STEP)
    U = alpha_max
    fU = phi(U)
    evals += 1
    wall = None   # smallest alpha seen with phi = +inf, if any
    while not isfinite(fU):
        wall = U
        U *= 0.5
        if U < 1e-16 * alpha_max:
            return LineSearchResult(alpha=0.0, f_new=f0, evals=evals,
                                    status=LineSearchStatus.NO_FINITE_STEP)
        fU = phi(U)
        evals += 1
    if wall is not None:
        # push the finite bound back toward the wall so the bracket keeps
        # any minimizer sitting between U and the wall
        for _ in range(60):
            if wall - U <= 1e-12 * max(1.0, wall):
                break
            mid = 0.5 * (U + wall)
            f_mid = phi(mid)
            evals += 1
            if isfinite(f_mid):
                U, fU = mid, f_mid
            else:
                wall = mid

    # Brent-style bounded minimization on [a, b]; x is the incumbent,
    # w the runner-up, v the previous runner-up.
    a, b = 0.0, U
    x = a + _GOLDEN * (b - a)
    fx = phi(x)
    evals += 1
    w, fw = (0.0, f0) if f0 < fU else (U, fU)
    v, fv = (U, fU) if f0 < fU else (0.0, f0)
    if fw < fx:
        # keep x the best seen so far
        x, fx, w, fw = w, fw, x, fx
    d_prev = b - a
    d_curr = b - a
    for _ in range(MAX_EXACT_STEPS):
        if b - a <= EXACT_TOL:
            break
        m = 0.5 * (a + b)
        trial = None
        if x != w and w != v and x != v:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if q > 0.0:
                cand = x + p / q
                # accept the vertex only inside the bracket and only if it
                # moves less than half the step before last
                if a < cand < b and abs(p / q) < 0.5 * d_prev:
                    trial = cand
        if trial is None:
            trial = x + _GOLDEN * ((b - x) if x < m else (a - x))
        d_prev, d_curr = d_curr, abs(trial - x)
        u = trial
        fu = phi(u)
        evals += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    best_alpha, best_f = x, fx
    if f0 < best_f:
        best_alpha, best_f = 0.0, f0
    status = LineSearchStatus.ACCEPTED if b - a <= EXACT_TOL else \
        LineSearchStatus.MAX_EXACT_STEPS
    return LineSearchResult(alpha=best_alpha, f_new=best_f, evals=evals,
                            status=status)


def armijo_backtrack(phi: Phi, dphi0: float,
                     spec: ArmijoSearch) -> LineSearchResult:
    """Smallest m >= 0 with phi(beta^m alpha0) <= phi(0) + sigma beta^m
    alpha0 dphi0 and a finite value; at most MAX_BACKTRACKS halvings.
    A slope dphi0 that is not negative returns NotDescent unevaluated."""
    if not dphi0 < 0.0:   # NaN included
        return LineSearchResult(alpha=0.0, f_new=nan, evals=0,
                                status=LineSearchStatus.NOT_DESCENT)
    f0 = phi(0.0)
    evals = 1
    alpha = spec.alpha0
    for _ in range(MAX_BACKTRACKS + 1):
        f_trial = phi(alpha)
        evals += 1
        if isfinite(f_trial) and f_trial <= f0 + spec.sigma * alpha * dphi0:
            return LineSearchResult(alpha=alpha, f_new=f_trial, evals=evals,
                                    status=LineSearchStatus.ACCEPTED)
        alpha *= spec.beta
    return LineSearchResult(alpha=alpha / spec.beta, f_new=f0, evals=evals,
                            status=LineSearchStatus.MAX_BACKTRACKS)


def strong_wolfe_search(phi: Phi, dphi: Phi,
                        spec: StrongWolfeSearch) -> LineSearchResult:
    """Bracket-then-zoom search for the strong Wolfe conditions: sufficient
    decrease, phi(a) finite and <= phi(0) + c1 a dphi(0), and curvature,
    |dphi(a)| <= c2 |dphi(0)|.

    Expansion doubles the trial up to alpha_max until one meets both or
    brackets a point that does; zoom then alternates a quadratic-
    interpolation candidate (used only in the middle 80% of the bracket)
    with bisection; a bracket so wide that the candidate overflows is
    bisected. Failing that, the best sufficient-decrease point (else
    alpha0 and phi(0)) is returned with status ZoomFailed. A slope dphi(0)
    that is not negative returns NotDescent before phi is evaluated.
    """
    dphi0 = dphi(0.0)
    if not dphi0 < 0.0:   # NaN included
        return LineSearchResult(alpha=0.0, f_new=nan, evals=0,
                                status=LineSearchStatus.NOT_DESCENT)
    f0 = phi(0.0)
    evals = 1
    best = None   # the sufficient-decrease trial with the lowest phi
    max_slope = -spec.c2 * dphi0   # curvature holds where |dphi| <= max_slope

    def trial(alpha: float) -> tuple[float, bool]:
        """phi(alpha), counted, and whether it gives sufficient decrease."""
        nonlocal evals, best
        f = phi(alpha)
        evals += 1
        ok = isfinite(f) and f <= f0 + spec.c1 * alpha * dphi0
        if ok and (best is None or f < best[1]):
            best = (alpha, f)
        return f, ok

    # lo is the lowest point found with sufficient decrease, with its slope;
    # hi the other end of the bracket, once there is one.
    lo, f_lo, d_lo = 0.0, f0, dphi0
    hi = f_hi = None
    alpha = min(spec.alpha0, spec.alpha_max)
    while True:
        f, ok = trial(alpha)
        # after the first trial, lo > 0 and phi must keep falling
        if not ok or (lo > 0.0 and f >= f_lo):
            hi, f_hi = alpha, f
            break
        d = dphi(alpha)
        if abs(d) <= max_slope:
            return LineSearchResult(alpha=alpha, f_new=f, evals=evals,
                                    status=LineSearchStatus.ACCEPTED)
        if d >= 0.0:
            lo, f_lo, d_lo, hi, f_hi = alpha, f, d, lo, f_lo
            break
        if alpha >= spec.alpha_max:
            break
        lo, f_lo, d_lo = alpha, f, d
        alpha = min(2.0 * alpha, spec.alpha_max)

    if hi is not None:
        for _ in range(MAX_ZOOM):
            left, right = (lo, hi) if lo < hi else (hi, lo)
            width = right - left
            if width <= 1e-16 * max(1.0, right):
                break
            # bisect, unless the quadratic model through (lo, f_lo, d_lo)
            # and (hi, f_hi) has its minimizer in the middle 80%
            alpha = 0.5 * (lo + hi)
            denom = 2.0 * (f_hi - f_lo - d_lo * (hi - lo))
            if isfinite(f_hi) and denom != 0.0:
                try:
                    cand = lo - d_lo * (hi - lo) ** 2 / denom
                except OverflowError:   # float ** raises past ~1.3e154
                    cand = nan
                if left + 0.1 * width < cand < right - 0.1 * width:
                    alpha = cand
            f, ok = trial(alpha)
            if not ok or f >= f_lo:
                hi, f_hi = alpha, f
                continue
            d = dphi(alpha)
            if abs(d) <= max_slope:
                return LineSearchResult(alpha=alpha, f_new=f, evals=evals,
                                        status=LineSearchStatus.ACCEPTED)
            if d * (hi - lo) >= 0.0:
                hi, f_hi = lo, f_lo
            lo, f_lo, d_lo = alpha, f, d
    alpha, f = best if best is not None else (spec.alpha0, f0)
    return LineSearchResult(alpha=alpha, f_new=f, evals=evals,
                            status=LineSearchStatus.ZOOM_FAILED)
