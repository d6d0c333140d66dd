"""The affine-normal method on the benchmark's seeded n-D rotated quartics
(perfbench/problems_nd.py, imported and not changed): a linear rate under
strong convexity, and golden trajectories of rq10 under the three line
searches.

The golden files tests/golden/nd_rq10_yand_{exact,armijo,wolfe}.csv were
written by cli.write_trajectory_csv from seed 1's runs, and
`python tests/test_nd_runs.py` writes them again. They are compared under
perfbench/workloads.py's compare_csv, the rule of the committed results/:
k and the case column exactly, floats to 1e-9 relative.
"""
import sys
from functools import cache
from pathlib import Path

import pytest

from affinedescent.cli import write_trajectory_csv
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


@cache
def run(seed, name, ls):
    """yand_run with default stopping on the problem of that name in the
    seed's problem set, as the direction_nd workload runs it."""
    problem, = (p for p in problems_nd.generate(seed) if p.name == name)
    return yand_run(problem, SEARCHES[ls])


@pytest.mark.parametrize("ls", SEARCHES)
@pytest.mark.parametrize("seed, name", [(1, "rq10"), (5, "rq10"),
                                        (7, "rq10"), (1, "rq20")])
def test_linear_rate_under_strong_convexity(seed, name, ls):
    """f = sum a_i y_i^2 / 2 + y_i^4 / 4 with a_i >= 1 is strongly convex
    with minimum f* = 0, so each step's ratio f_{k+1} / f_k is its linear
    rate."""
    report = run(seed, name, ls)
    assert report.status is RunStatus.CONVERGED
    fs = [r.f for r in report.records]
    rates = [f1 / f0 for f0, f1 in zip(fs, fs[1:])]
    assert max(rates) <= RATE, rates


@pytest.mark.parametrize("ls", SEARCHES)
def test_rq10_trajectory_matches_golden(ls, tmp_path):
    out = tmp_path / f"nd_rq10_yand_{ls}.csv"
    write_trajectory_csv(run(1, "rq10", ls), out)
    assert compare_csv(out, GOLDEN / out.name)[0] is None


if __name__ == "__main__":
    for ls in SEARCHES:
        write_trajectory_csv(run(1, "rq10", ls),
                             GOLDEN / f"nd_rq10_yand_{ls}.csv")
