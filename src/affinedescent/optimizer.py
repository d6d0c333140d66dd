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
                          LineSearchSpec, LineSearchStatus,
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


def _step(obj: Objective, x: Vector, g: Vector, d: Vector, f_k: float,
          ls: LineSearchSpec | FixedStep) -> tuple | None:
    """The step taken from x along d, (x_new, alpha, f_new), or None: a fixed
    step wherever f is finite, even uphill (classical Newton); a search's
    only where it ends Accepted at alpha > 0 with f_new below f_k."""
    if isinstance(ls, FixedStep):
        x_new = x + ls.alpha * d
        f_new = obj.value(x_new)
        return (x_new, ls.alpha, f_new) if isfinite(f_new) else None

    def phi(alpha: float) -> float:
        return obj.value(x + alpha * d)

    if isinstance(ls, ExactSearch):
        res = exact_search(phi)
    elif isinstance(ls, ArmijoSearch):
        # d first: a gradient oracle may return any array-like
        res = armijo_backtrack(phi, float(d.dot(g)))
    elif isinstance(ls, StrongWolfeSearch):
        def dphi(alpha: float) -> float:
            return float(d.dot(obj.gradient(x + alpha * d)))

        res = strong_wolfe_search(phi, dphi)
    else:
        raise TypeError(f"unsupported line-search spec {ls!r}")
    if res.status is LineSearchStatus.ACCEPTED and res.alpha > 0.0 \
            and res.f_new < f_k:
        return x + res.alpha * d, res.alpha, res.f_new
    return None


def _loop(problem: Problem, ls: LineSearchSpec | FixedStep,
          stop: StoppingSpec | None, direction_fn) -> RunReport:
    """Shared driver. direction_fn(x, g) -> (step vector, case, T). _step
    is the one place that decides whether a step is taken, and this the one
    place where stop=None means StoppingSpec()."""
    if stop is None:
        stop = StoppingSpec()
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
        step = _step(obj, x, g, d, f_curr, ls)
        if step is None:
            status = RunStatus.LINE_SEARCH_FAILURE
            break
        x, alpha, f_curr = step
        g = as_vector(obj.gradient(x))
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
    obj = problem.objective

    def direction(x, g):
        res: DirectionResult = descent_direction(obj, x, g)
        return (res.step_scale * res.d, res.case.value, res.T)

    return _loop(problem, ls, stop, direction)


def gradient_descent_run(problem: Problem,
                         step: LineSearchSpec | FixedStep,
                         stop: StoppingSpec | None = None) -> RunReport:
    def direction(x, g):
        return (-g, "GD", 0.0)

    return _loop(problem, step, stop, direction)


def newton_run(problem: Problem, damped: bool = False,
               ls: LineSearchSpec | FixedStep | None = None,
               stop: StoppingSpec | None = None) -> RunReport:
    """Newton baseline with the given step rule; the damped variant
    regularizes the Hessian. Without ls, unit steps (classical Newton)
    when undamped, a strong Wolfe search when damped."""
    obj = problem.objective
    if ls is None:
        ls = StrongWolfeSearch() if damped else FixedStep(1.0)
    case = "DampedNewton" if damped else "Newton"

    def direction(x, g):
        return (newton_direction(obj, x, regularize=damped), case, 0.0)

    return _loop(problem, ls, stop, direction)

