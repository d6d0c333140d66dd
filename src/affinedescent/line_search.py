"""Step-size selection along a fixed ray.

phi is the one-dimensional restriction alpha -> f(x + alpha*d). Values of
+inf mark points outside the objective's domain and are never accepted;
the exact search first shrinks its upper bound to a finite value, and the
backtracking/bracketing rules reject them through ordinary comparisons.
Every outcome, failures included, is reported as a LineSearchResult status.
Each search runs at the module's constants (SIGMA, BETA, C1, C2, ALPHA0,
ALPHA_MAX); its spec, a frozen dataclass without fields, names the search
that a run takes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite, nan, sqrt
from typing import Callable, NamedTuple

from .numerics import positive_finite

Phi = Callable[[float], float]

_GOLDEN = 0.5 * (3.0 - sqrt(5.0))   # minor golden ratio, ~0.382


@dataclass(frozen=True)
class ExactSearch:
    """Derivative-free minimization of phi on [0, ALPHA_MAX]."""


@dataclass(frozen=True)
class ArmijoSearch:
    """Backtracking from ALPHA0 by BETA until sufficient decrease SIGMA."""


@dataclass(frozen=True)
class StrongWolfeSearch:
    """Strong Wolfe conditions C1, C2 from ALPHA0, capped at ALPHA_MAX."""


@dataclass(frozen=True)
class FixedStep:
    """Every step of length alpha, with no search."""

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


class LineSearchResult(NamedTuple):
    alpha: float
    f_new: float
    evals: int      # phi calls, none on NotDescent (dphi calls not counted)
    status: LineSearchStatus


# The searches' constants: Armijo's sufficient decrease and backtracking
# factor, the strong Wolfe pair 0 < C1 < C2 < 1 (Nocedal and Wright,
# Numerical Optimization, 2nd ed., sec. 3.1), the first trial step of
# both, and the cap on the exact and strong Wolfe steps.
SIGMA = 1e-4
BETA = 0.5
C1 = 1e-4
C2 = 0.9
ALPHA0 = 1.0
ALPHA_MAX = 10.0

MAX_BACKTRACKS = 60
MAX_ZOOM = 50
MAX_EXACT_STEPS = 500
# Final bracket width of the exact search.
EXACT_TOL = 1e-10


def exact_search(phi: Phi) -> LineSearchResult:
    """Derivative-free minimization of phi on [0, U], U <= ALPHA_MAX.

    U is halved until phi(U) is finite, then a golden-section bracket is
    shrunk to width EXACT_TOL, with parabolic-interpolation trial points taken
    whenever the three best iterates admit a vertex strictly inside the
    bracket (this resolves quadratic phi to machine precision). Returns
    the best evaluated point, with status MaxExactSteps when the bracket
    is still wider than EXACT_TOL after MAX_EXACT_STEPS trial points, and
    alpha 0 with status NoFiniteStep when phi(0) is not finite or U falls
    below 1e-16 ALPHA_MAX.
    """
    f0 = phi(0.0)
    evals = 1
    if not isfinite(f0):
        return LineSearchResult(alpha=0.0, f_new=f0, evals=evals,
                                status=LineSearchStatus.NO_FINITE_STEP)
    U = ALPHA_MAX
    fU = phi(U)
    evals += 1
    wall = None   # smallest alpha seen with phi = +inf, if any
    while not isfinite(fU):
        wall = U
        U *= 0.5
        if U < 1e-16 * ALPHA_MAX:
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
    # x is the best point seen, 0 included: the swap left fx <= min(f0, fU)
    status = LineSearchStatus.ACCEPTED if b - a <= EXACT_TOL else \
        LineSearchStatus.MAX_EXACT_STEPS
    return LineSearchResult(alpha=x, f_new=fx, evals=evals, status=status)


def armijo_backtrack(phi: Phi, dphi0: float) -> LineSearchResult:
    """Smallest m >= 0 with phi(BETA^m ALPHA0) <= phi(0) + SIGMA BETA^m
    ALPHA0 dphi0 and a finite value; at most MAX_BACKTRACKS halvings.
    A slope dphi0 that is not negative returns NotDescent unevaluated."""
    if not dphi0 < 0.0:   # NaN included
        return LineSearchResult(alpha=0.0, f_new=nan, evals=0,
                                status=LineSearchStatus.NOT_DESCENT)
    f0 = phi(0.0)
    evals = 1
    alpha = ALPHA0
    for _ in range(MAX_BACKTRACKS + 1):
        f_trial = phi(alpha)
        evals += 1
        if isfinite(f_trial) and f_trial <= f0 + SIGMA * alpha * dphi0:
            return LineSearchResult(alpha=alpha, f_new=f_trial, evals=evals,
                                    status=LineSearchStatus.ACCEPTED)
        alpha *= BETA
    return LineSearchResult(alpha=alpha / BETA, f_new=f0, evals=evals,
                            status=LineSearchStatus.MAX_BACKTRACKS)


def strong_wolfe_search(phi: Phi, dphi: Phi) -> LineSearchResult:
    """Bracket-then-zoom search for the strong Wolfe conditions: sufficient
    decrease, phi(a) finite and <= phi(0) + C1 a dphi(0), and curvature,
    |dphi(a)| <= C2 |dphi(0)|.

    Expansion doubles the trial from ALPHA0 up to ALPHA_MAX until one meets
    both or brackets a point that does; zoom then alternates a quadratic-
    interpolation candidate (used only in the middle 80% of the bracket)
    with bisection. Failing that, the bracket's low end, the lowest
    sufficient-decrease point (else ALPHA0 and phi(0)), is returned with
    status ZoomFailed. A slope dphi(0) that is not negative returns
    NotDescent before phi is evaluated.
    """
    dphi0 = dphi(0.0)
    if not dphi0 < 0.0:   # NaN included
        return LineSearchResult(alpha=0.0, f_new=nan, evals=0,
                                status=LineSearchStatus.NOT_DESCENT)
    f0 = phi(0.0)
    evals = 1
    max_slope = -C2 * dphi0   # curvature holds where |dphi| <= max_slope

    def trial(alpha: float) -> tuple[float, bool]:
        """phi(alpha), counted, and whether it gives sufficient decrease."""
        nonlocal evals
        f = phi(alpha)
        evals += 1
        return f, isfinite(f) and f <= f0 + C1 * alpha * dphi0

    # lo is the lowest point found with sufficient decrease, with its slope;
    # hi the other end of the bracket, once there is one.
    lo, f_lo, d_lo = 0.0, f0, dphi0
    hi = f_hi = None
    alpha = ALPHA0
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
        lo, f_lo, d_lo = alpha, f, d
        if alpha >= ALPHA_MAX:
            break
        alpha = min(2.0 * alpha, ALPHA_MAX)

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
                cand = lo - d_lo * (hi - lo) ** 2 / denom
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
    alpha, f = (lo, f_lo) if lo > 0.0 else (ALPHA0, f0)
    return LineSearchResult(alpha=alpha, f_new=f, evals=evals,
                            status=LineSearchStatus.ZOOM_FAILED)
