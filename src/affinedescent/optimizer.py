"""Iteration loops: the geometric descent method plus gradient-descent and
Newton baselines, all emitting the same per-iterate telemetry.

Record convention: row 0 is the start point (alpha 0, case "-", T 0); row
k >= 1 carries the step data (alpha, case, T) of the move that produced
iterate k.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isfinite
from numbers import Integral
from typing import NamedTuple

from .direction import DirectionResult, descent_direction, newton_direction
from .errors import (NonFiniteHessian, NonFiniteThird, SingularHessian,
                     ZeroGradient)
from .line_search import (ArmijoSearch, ExactSearch, FixedStep,
                          LineSearchResult, LineSearchSpec, LineSearchStatus,
                          StrongWolfeSearch, armijo_backtrack, exact_search,
                          strong_wolfe_search)
from .numerics import Vector, as_vector, norm2, positive_finite
from .objective import Objective
from .problems import Problem


@dataclass(frozen=True)
class StoppingSpec:
    """Stop at gradient norm <= tol_grad or after max_iter iterations."""

    tol_grad: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        positive_finite("tol_grad", self.tol_grad)
        # integers only: iters >= nan is never true, so NaN would never stop
        if not isinstance(self.max_iter, Integral) or self.max_iter <= 0:
            raise ValueError("max_iter must be a positive integer")


class RunStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITER_REACHED = "MaxIterReached"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    DEGENERATE_STOP = "DegenerateStop"
    NON_FINITE_GRADIENT = "NonFiniteGradient"
    NON_FINITE_HESSIAN = "NonFiniteHessian"
    NON_FINITE_THIRD = "NonFiniteThird"


class IterateRecord(NamedTuple):
    k: int
    x: Vector
    f: float
    grad_norm: float
    alpha: float          # 0 for k=0
    case: str
    T: float

    cos_theta = DirectionResult.cos_theta   # 1 / sqrt(1 + T^2), 1 at T = 0


class RunReport(NamedTuple):
    """Per-iterate records and the outcome of one optimization run."""

    records: list[IterateRecord]
    status: RunStatus

    @property
    def iters(self) -> int:
        """Accepted iterates: the k of the last record."""
        return self.records[-1].k

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]


def _run_line_search(obj: Objective, x: Vector, g: Vector, d: Vector,
                     ls: LineSearchSpec) -> LineSearchResult:
    def phi(alpha: float) -> float:
        return obj.value(x + alpha * d)

    if isinstance(ls, ExactSearch):
        return exact_search(phi, alpha_max=ls.alpha_max)
    if isinstance(ls, ArmijoSearch):
        # d first: a gradient oracle may return any array-like
        return armijo_backtrack(phi, float(d.dot(g)), ls)
    if isinstance(ls, StrongWolfeSearch):
        def dphi(alpha: float) -> float:
            return float(d.dot(obj.gradient(x + alpha * d)))

        return strong_wolfe_search(phi, dphi, ls)
    raise TypeError(f"unsupported line-search spec {ls!r}")


def _loop(problem: Problem, ls: LineSearchSpec | FixedStep,
          stop: StoppingSpec, direction_fn) -> RunReport:
    """Shared driver. direction_fn(x, g) -> (step vector, case, T)."""
    obj = problem.objective
    x = as_vector(problem.x0).copy()
    f_curr = obj.value(x)
    if not isfinite(f_curr):
        raise ValueError("start point is outside the domain")
    g = as_vector(obj.gradient(x))   # an oracle may return a list
    gnorm = norm2(g)
    # Every iterate is a fresh array, so each record owns its x.
    records = [IterateRecord(0, x, f_curr, gnorm, 0.0, "-", 0.0)]
    iters = 0
    while True:
        if not isfinite(gnorm):   # at the start point or an accepted iterate
            status = RunStatus.NON_FINITE_GRADIENT
            break
        if gnorm <= stop.tol_grad:
            status = RunStatus.CONVERGED
            break
        if iters >= stop.max_iter:
            status = RunStatus.MAX_ITER_REACHED
            break
        try:
            d, case, T = direction_fn(x, g)
        except (SingularHessian, ZeroGradient):
            status = RunStatus.DEGENERATE_STOP
            break
        except NonFiniteHessian:   # at the start point or an accepted iterate
            status = RunStatus.NON_FINITE_HESSIAN
            break
        except NonFiniteThird:
            status = RunStatus.NON_FINITE_THIRD
            break
        if isinstance(ls, FixedStep):
            alpha = ls.alpha
            x_new = x + alpha * d
            f_new = obj.value(x_new)
            if not isfinite(f_new):
                status = RunStatus.LINE_SEARCH_FAILURE
                break
        else:
            res = _run_line_search(obj, x, g, d, ls)
            if res.status is not LineSearchStatus.ACCEPTED or \
                    res.alpha <= 0.0 or not res.f_new < f_curr:
                status = RunStatus.LINE_SEARCH_FAILURE
                break
            alpha = res.alpha
            x_new = x + alpha * d
            f_new = res.f_new
        x, f_curr, g = x_new, f_new, as_vector(obj.gradient(x_new))
        gnorm = norm2(g)
        iters += 1
        records.append(IterateRecord(iters, x, f_curr, gnorm, float(alpha),
                                     case, T))
    return RunReport(records=records, status=status)


def yand_run(problem: Problem, ls: LineSearchSpec,
             stop: StoppingSpec | None = None) -> RunReport:
    """Geometric descent: search along step_scale * d at every iterate.
    The direction reads the gradient the loop holds at the iterate, so
    for n >= 3 it makes no gradient call of its own (the planar path of
    n = 2 still makes two; see descent_direction)."""
    if stop is None:
        stop = StoppingSpec()
    obj = problem.objective

    def direction(x, g):
        res: DirectionResult = descent_direction(obj, x, g)
        return (res.step_scale * res.d, res.case.value, res.T)

    return _loop(problem, ls, stop, direction)


def gradient_descent_run(problem: Problem,
                         step: LineSearchSpec | FixedStep,
                         stop: StoppingSpec | None = None) -> RunReport:
    if stop is None:
        stop = StoppingSpec()

    def direction(x, g):
        return (-g, "GD", 0.0)

    return _loop(problem, step, stop, direction)


def newton_run(problem: Problem, damped: bool = False,
               ls: LineSearchSpec | FixedStep | None = None,
               stop: StoppingSpec | None = None) -> RunReport:
    """Newton baseline with the given step rule; the damped variant
    regularizes the Hessian. Without ls, unit steps (classical Newton)
    when undamped, a strong Wolfe search when damped."""
    if stop is None:
        stop = StoppingSpec()
    obj = problem.objective
    if ls is None:
        ls = StrongWolfeSearch() if damped else FixedStep(1.0)
    case = "DampedNewton" if damped else "Newton"

    def direction(x, g):
        return (newton_direction(obj, x, regularize=damped), case, 0.0)

    return _loop(problem, ls, stop, direction)


class RateTable(NamedTuple):
    linear_ratios: list[float]
    quad_ratios: list[float]


def empirical_rates(report: RunReport, x_star=None,
                    f_star: float | None = None) -> RateTable:
    """Per-step diagnostics: (f_{k+1}-f*)/(f_k-f*) and ||e_{k+1}||/||e_k||^2.

    Ratios are reported as computed (inf where a denominator vanishes);
    nothing is asserted here.
    """
    if x_star is None and f_star is None:
        raise ValueError("empirical_rates needs x_star or f_star")
    linear: list[float] = []
    quad: list[float] = []
    recs = report.records
    if f_star is not None:
        for r0, r1 in zip(recs, recs[1:]):
            gap0 = r0.f - f_star
            linear.append((r1.f - f_star) / gap0 if gap0 > 0.0 else float("inf"))
    if x_star is not None:
        xs = as_vector(x_star, recs[0].x.size)
        errs = [norm2(r.x - xs) for r in recs]
        for e0, e1 in zip(errs, errs[1:]):
            quad.append(e1 / (e0 * e0) if e0 > 0.0 else float("inf"))
    return RateTable(linear_ratios=linear, quad_ratios=quad)
