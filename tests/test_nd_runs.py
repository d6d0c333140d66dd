"""The affine-normal method on the benchmark's seeded n-D rotated quartics
(perfbench/problems_nd.py, imported and not changed): a linear rate under
strong convexity, a local quadratic rate, iterates that map onto those
of the base run under volume-preserving maps, and golden trajectories of
rq10 under the three line searches.

The golden files tests/golden/nd_rq10_yand_{exact,armijo,wolfe}.csv were
written by cli.write_trajectory_csv from seed 1's runs, and
`python tests/test_nd_runs.py` writes them again. They are compared under
perfbench/workloads.py's compare_csv, the rule of the committed results/:
k and the case column exactly, floats to 1e-9 relative.
"""
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from helpers import random_gl_plus

from affinedescent.cli import write_trajectory_csv
from affinedescent.invariance import run_invariance
from affinedescent.line_search import (ArmijoSearch, ExactSearch,
                                       StrongWolfeSearch)
from affinedescent.optimizer import RunStatus, yand_run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.append(str(ROOT / "perfbench"))

import problems_nd  # noqa: E402
from workloads import compare_csv  # noqa: E402

SEARCHES = {"exact": ExactSearch(), "armijo": ArmijoSearch(),
            "wolfe": StrongWolfeSearch()}
# f_{k+1} / f_k at every step; the largest measured is 0.875 (rq10, Wolfe).
RATE = 0.9
# ||g_{k+1}|| / ||g_k||^2 over a run's last three steps; the largest
# measured is 0.11 (rq10), and 0.04 on rq20 and rq40, at every seed.
QUADRATIC_RATE = 0.25
# (seed, name) of the runs whose rates are checked
RATE_RUNS = [(1, "rq10"), (5, "rq10"), (7, "rq10"), (1, "rq20")]


@cache
def problem(seed, name):
    """The problem of that name in the seed's problem set."""
    p, = (p for p in problems_nd.generate(seed) if p.name == name)
    return p


@cache
def run(seed, name, ls):
    """yand_run with default stopping, as the direction_nd workload runs
    it."""
    return yand_run(problem(seed, name), SEARCHES[ls])


@pytest.mark.parametrize("ls", SEARCHES)
@pytest.mark.parametrize("seed, name", RATE_RUNS)
def test_linear_rate_under_strong_convexity(seed, name, ls):
    """f = sum a_i y_i^2 / 2 + y_i^4 / 4 with a_i >= 1 is strongly convex
    with minimum f* = 0, so each step's ratio f_{k+1} / f_k is its linear
    rate."""
    report = run(seed, name, ls)
    assert report.status is RunStatus.CONVERGED
    fs = [r.f for r in report.records]
    rates = [f1 / f0 for f0, f1 in zip(fs, fs[1:])]
    assert max(rates) <= RATE, rates


@pytest.mark.parametrize("seed, name", RATE_RUNS)
def test_quadratic_local_rate(seed, name):
    """The paper's local quadratic convergence at n >= 3: near the
    minimizer of the exact-search run, ||g_{k+1}|| <= C ||g_k||^2."""
    report = run(seed, name, "exact")
    assert report.status is RunStatus.CONVERGED
    gs = [r.grad_norm for r in report.records[-4:]]
    rates = [g1 / (g0 * g0) for g0, g1 in zip(gs, gs[1:])]
    assert max(rates) <= QUADRATIC_RATE, rates


@pytest.mark.parametrize("name, log_cond, ls", [
    *[("rq10", k, ls) for k in range(5) for ls in SEARCHES],
    ("rq20", 4, "exact")])
def test_iterates_map_onto_base_under_volume_preserving_maps(name, log_cond,
                                                             ls):
    """The paper's invariance under volume-preserving affine maps, end to
    end: run_invariance on phi(A x) from A^-1 y0 and on phi from y0 (seed
    1), with A from random_gl_plus (seed 100 + log_cond) rescaled to det 1
    at cond(A) = 10**log_cond. Both runs converge and each x_k maps onto
    y_k within 1e-6 (the exact search's bracket noise: 5.9e-7 seen through
    cond 1e3) plus 1e4 eps cond^2 (the rounding of the composed Hessian
    A^T H A: 1.1e-4 seen, Wolfe at cond 1e4). Exact and Wolfe take equal
    iteration counts. Armijo's counts are not compared: the gradient-norm
    stop is not invariant, and on rq20 it ends 8 iterations against 7.

    cond 1e6 is left out. There rq10's composed tangent block at x0 has an
    eigenvalue of 1.65e-6, inside the Singular threshold DEGENERACY_TOL *
    max(1, ||S||_inf) = 1.48e-4, so the scaled run takes SteepestFallback
    steps until the iteration cap."""
    base = problem(1, name)
    n = base.objective.dim
    A = random_gl_plus(np.random.default_rng(100 + log_cond), n, log_cond)
    A /= np.linalg.det(A) ** (1.0 / n)
    rep = run_invariance(base, A, SEARCHES[ls])
    assert rep.scaled.status is rep.base.status is RunStatus.CONVERGED
    if ls != "armijo":
        assert rep.scaled.iters == rep.base.iters
    bound = 1e-6 + 1e4 * np.finfo(float).eps * 10.0 ** (2 * log_cond)
    assert max(rep.per_iterate_deviation) <= bound


@pytest.mark.parametrize("ls", SEARCHES)
def test_rq10_trajectory_matches_golden(ls, tmp_path):
    out = tmp_path / f"nd_rq10_yand_{ls}.csv"
    write_trajectory_csv(run(1, "rq10", ls), out)
    assert compare_csv(out, GOLDEN / out.name)[0] is None


if __name__ == "__main__":
    for ls in SEARCHES:
        write_trajectory_csv(run(1, "rq10", ls),
                             GOLDEN / f"nd_rq10_yand_{ls}.csv")
