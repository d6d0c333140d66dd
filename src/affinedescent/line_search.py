"""Step-size selection along a fixed ray.

phi is the one-dimensional restriction alpha -> f(x + alpha*d). Values of
+inf mark points outside the objective's domain and are never accepted;
the exact search first shrinks its upper bound to a finite value, and the
backtracking/bracketing rules reject them through ordinary comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite, sqrt
from typing import Callable

from .errors import NoFiniteStep, NotDescent

Phi = Callable[[float], float]

_GOLDEN = 0.5 * (3.0 - sqrt(5.0))   # minor golden ratio, ~0.382


@dataclass(frozen=True)
class ExactSearch:
    alpha_max: float = 10.0

    def __post_init__(self):
        if self.alpha_max <= 0.0:
            raise ValueError("alpha_max must be positive")


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
        if self.alpha0 <= 0.0:
            raise ValueError("alpha0 must be positive")


@dataclass(frozen=True)
class StrongWolfeSearch:
    c1: float = 1e-4
    c2: float = 0.9
    alpha0: float = 1.0
    alpha_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.c1 < self.c2 < 1.0:
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.alpha0 <= 0.0 or self.alpha_max <= 0.0:
            raise ValueError("alpha0 and alpha_max must be positive")


@dataclass(frozen=True)
class FixedStep:
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")


LineSearchSpec = ExactSearch | ArmijoSearch | StrongWolfeSearch


class LineSearchStatus(Enum):
    ACCEPTED = "Accepted"
    MAX_BACKTRACKS = "MaxBacktracks"
    ZOOM_FAILED = "ZoomFailed"
    MAX_EXACT_STEPS = "MaxExactSteps"


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    f_new: float
    evals: int      # phi evaluations (derivative calls not counted)
    status: LineSearchStatus


MAX_BACKTRACKS = 60
MAX_ZOOM = 50
MAX_EXACT_STEPS = 500
# Final bracket width of the exact search.
EXACT_TOL = 1e-10


def exact_search(phi: Phi, alpha_max: float = 10.0) -> LineSearchResult:
    """Derivative-free minimization of phi on [0, U], U <= alpha_max.

    U is halved until phi(U) is finite, then a golden-section bracket is
    shrunk to width EXACT_TOL, with parabolic-interpolation trial points taken
    whenever the three best iterates admit a vertex strictly inside the
    bracket (this resolves quadratic phi to machine precision). Returns
    the best evaluated point, with status MaxExactSteps when the bracket
    is still wider than EXACT_TOL after MAX_EXACT_STEPS trial points.
    """
    f0 = phi(0.0)
    evals = 1
    if not isfinite(f0):
        raise NoFiniteStep("phi(0) is not finite")
    U = alpha_max
    fU = phi(U)
    evals += 1
    wall = None   # smallest alpha seen with phi = +inf, if any
    while not isfinite(fU):
        wall = U
        U *= 0.5
        if U < 1e-16 * alpha_max:
            raise NoFiniteStep("no finite value on (0, alpha_max]")
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
    alpha0 dphi0 and a finite value; at most MAX_BACKTRACKS halvings."""
    if dphi0 >= 0.0:
        raise NotDescent(f"dphi0 = {dphi0:g} is not negative")
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
    """Bracket-then-zoom search for the strong Wolfe conditions:
    phi(a) <= phi(0) + c1 a dphi(0) and |dphi(a)| <= c2 |dphi(0)|.

    Expansion doubles the trial up to alpha_max; zoom alternates a
    quadratic-interpolation candidate (used only when it lands in the
    middle 80% of the bracket) with bisection. If zoom exhausts its
    budget, the best point satisfying the sufficient-decrease inequality
    is returned with status ZoomFailed.
    """
    dphi0 = dphi(0.0)
    if dphi0 >= 0.0:
        raise NotDescent(f"dphi(0) = {dphi0:g} is not negative")
    f0 = phi(0.0)
    evals = 1
    state = {"evals": evals, "best": None}   # best Armijo-satisfying (alpha, f)

    def eval_phi(alpha: float) -> float:
        f = phi(alpha)
        state["evals"] += 1
        if isfinite(f) and f <= f0 + spec.c1 * alpha * dphi0:
            best = state["best"]
            if best is None or f < best[1]:
                state["best"] = (alpha, f)
        return f

    def result(alpha: float, f: float, status: LineSearchStatus) -> LineSearchResult:
        return LineSearchResult(alpha=alpha, f_new=f, evals=state["evals"],
                                status=status)

    def fallback() -> LineSearchResult:
        best = state["best"]
        if best is not None:
            return result(best[0], best[1], LineSearchStatus.ZOOM_FAILED)
        return result(spec.alpha0, f0, LineSearchStatus.ZOOM_FAILED)

    def zoom(lo: float, f_lo: float, d_lo: float, hi: float,
             f_hi: float) -> LineSearchResult:
        for _ in range(MAX_ZOOM):
            left, right = (lo, hi) if lo < hi else (hi, lo)
            width = right - left
            if width <= 1e-16 * max(1.0, right):
                break
            # quadratic model through (lo, f_lo, d_lo) and (hi, f_hi)
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

