"""The benchmark's workloads: inputs built from a seed, a fixed list of
solves, and a correctness check for each solve's output.

A *solve* is one optimizer run, or one CLI step in catalog2d. A *pass* runs
the workload's solves once, in order.

- catalog2d: every step of scripts/reproduce_all.py (verify, examples,
  table2, invariance, the trajectory runs) through ``affinedescent.cli.main``
  in-process. This is the paper's published traffic: 2-D/3-D problems where
  per-call overhead dominates. The seed only shuffles the step order; the
  outputs must match the committed results/*.csv.
- direction_nd: the affine-normal method (yand_run) on seeded rotated
  quartics at n = 10, 20, 40 and extended Rosenbrock at n = 20, where the
  third-derivative tensor dominates.
- baselines_nd: gradient descent and damped Newton on the same problems:
  thousands of cheap line searches at trivial direction cost.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from affinedescent import (ArmijoSearch, ExactSearch, StoppingSpec,
                           StrongWolfeSearch, cli, optimizer, problems)

import problems_nd
from counting import Oracles

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
NAMES = ("catalog2d", "direction_nd", "baselines_nd")

# catalog2d: floats in regenerated CSVs must match the committed files to
# |a - b| <= CSV_RTOL * max(|a|, |b|) + CSV_ATOL; every other cell, integer
# cells (iteration counts, k) and the case column included, must match exactly.
CSV_RTOL = 1e-9
CSV_ATOL = 1e-12
# n-D workloads: every solve must end Converged within X_TOL of the known x*.
X_TOL = 1e-3

LINE_SEARCHES = {"exact": ExactSearch(), "armijo": ArmijoSearch(),
                 "wolfe": StrongWolfeSearch()}
# (problem, line search) pairs of direction_nd. Each line search runs at
# n = 10 and 20; n = 40 and Rosenbrock run once each, because one yand
# iterate at n = 40 makes ~30k scalar third-derivative calls and the pass
# has to fit several times into one run.
DIRECTION_SOLVES = (("rq10", "exact"), ("rq10", "armijo"), ("rq10", "wolfe"),
                    ("rq20", "exact"), ("rq20", "armijo"), ("rq20", "wolfe"),
                    ("rq40", "exact"), ("rosen20", "wolfe"))
# Gradient descent runs on the quartics only: from the standard start it
# does not reach ||g|| <= 1e-4 on extended Rosenbrock within 3000 iterations.
GD_PROBLEMS = ("rq10", "rq20", "rq40")
GD_STOP = StoppingSpec(max_iter=2000)


@dataclass
class Solve:
    name: str
    run: Callable[[], object]
    # check(result) -> (failure message or None, accepted iterates)
    check: Callable[[object], tuple[str | None, int]]


@dataclass
class Workload:
    solves: list[Solve]
    oracles: Oracles
    close: Callable[[], None] = lambda: None


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def build(name: str, seed: int, root: Path, out_dir: Path,
          golden: dict | None = None) -> Workload:
    """Set up a workload. ``golden`` defaults to perfbench/golden.json."""
    if name == "catalog2d":
        return _catalog2d(seed, root, out_dir)
    if golden is None:
        golden = load_golden()
    if name == "direction_nd":
        return _direction_nd(seed, golden.get(name, {}))
    if name == "baselines_nd":
        return _baselines_nd(seed, golden.get(name, {}))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# ---------------------------------------------------------------- catalog2d

def _catalog2d(seed: int, root: Path, out_dir: Path) -> Workload:
    sys.path.insert(0, str(root / "scripts"))
    from reproduce_all import TRAJECTORY_RUNS

    oracles = Oracles()
    counted = {name: oracles.wrap_problem(problems.catalog(name))
               for name in problems.CATALOG_NAMES}
    make_scaled = problems.make_affine_scaled

    def counted_scaled(gamma):
        scaled, spec = make_scaled(gamma)
        return oracles.wrap_problem(scaled), spec

    # The CLI looks these up in its own namespace, so it receives the
    # counted problems.
    cli.catalog = counted.__getitem__
    cli.make_affine_scaled = counted_scaled

    steps = [(["verify"], "verify.csv"), (["examples"], "examples.csv"),
             (["table2"], "table2.csv"),
             (["invariance", "--gammas", "10,100,10000"], "invariance.csv")]
    steps += [(["run", p, m, ls], f"traj_{p}_{m}_{ls}.csv")
              for p, m, ls in TRAJECTORY_RUNS]
    order = np.random.default_rng(seed).permutation(len(steps))
    devnull = open(os.devnull, "w")
    expected_dir = root / "results"

    def make(argv, filename):
        out = out_dir / filename
        expected = expected_dir / filename

        def run():
            with redirect_stdout(devnull):
                return cli.main(argv + ["--out", str(out)])

        def check(code):
            if code != 0:
                return f"exit code {code}", 0
            return compare_csv(out, expected)

        return Solve(filename[:-4], run, check)

    solves = [make(*steps[i]) for i in order]
    return Workload(solves, oracles, devnull.close)


def _parse_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(path: Path, expected: Path) -> tuple[str | None, int]:
    """Compare a regenerated CSV with the committed one; also return the
    accepted iterates it records."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(expected, newline="") as fh:
        want = list(csv.reader(fh))
    if len(got) != len(want) or got[0] != want[0]:
        return f"{path.name}: shape or header differs from {expected}", 0
    for row_no, (g_row, w_row) in enumerate(zip(got, want)):
        if len(g_row) != len(w_row):
            return f"{path.name}:{row_no + 1}: column count differs", 0
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            a, b = _parse_float(g), _parse_float(w)
            exact = w.lstrip("-").isdigit() or a is None or b is None
            if exact or abs(a - b) > CSV_RTOL * max(abs(a), abs(b)) + CSV_ATOL:
                return f"{path.name}:{row_no + 1}: {g!r} != {w!r}", 0
    return None, _iterates(path.name, got)


def _iterates(filename: str, rows: list[list[str]]) -> int:
    header, body = rows[0], rows[1:]
    if filename.startswith("traj_"):
        return len(body) - 1
    if filename == "table2.csv":
        first = header.index("yand_exact")
        return sum(int(cell.rstrip("*")) for row in body for cell in row[first:])
    if filename == "invariance.csv":
        return sum(int(row[2]) + int(row[3]) for row in body)
    return 0


# ---------------------------------------------------------------- n-D

def _nd_problems(seed: int, oracles: Oracles) -> dict:
    generated = problems_nd.generate(seed)
    problems_nd.check_derivatives(generated, seed)
    return {p.name: oracles.wrap_problem(p) for p in generated}


def _nd_solve(key: str, problem, run, golden: dict) -> Solve:
    def check(report):
        iters = report.iters
        want = golden.get(key)
        if want is None:
            return f"{key}: no golden record", iters
        if report.status.value != "Converged":
            return f"{key}: status {report.status.value}", iters
        dist = float(np.linalg.norm(report.final.x - problem.x_star))
        if dist > X_TOL:
            return f"{key}: ||x - x*|| = {dist:.3e} > {X_TOL:g}", iters
        if iters != want["iters"]:
            return f"{key}: {iters} iterations, golden {want['iters']}", iters
        cases = " ".join(r.case for r in report.records[1:])
        if cases != want["cases"]:
            return f"{key}: case sequence {cases} != golden {want['cases']}", iters
        return None, iters

    return Solve(key, run, check)


def _direction_nd(seed: int, golden: dict) -> Workload:
    oracles = Oracles()
    probs = _nd_problems(seed, oracles)

    def make(name, ls):
        problem, spec = probs[name], LINE_SEARCHES[ls]
        return _nd_solve(f"{name}/yand/{ls}", problem,
                         lambda: optimizer.yand_run(problem, spec), golden)

    return Workload([make(name, ls) for name, ls in DIRECTION_SOLVES], oracles)


def _baselines_nd(seed: int, golden: dict) -> Workload:
    oracles = Oracles()
    probs = _nd_problems(seed, oracles)
    solves = []
    for name in GD_PROBLEMS:
        for ls, spec in LINE_SEARCHES.items():
            problem = probs[name]
            solves.append(_nd_solve(
                f"{name}/gd/{ls}", problem,
                lambda p=problem, s=spec: optimizer.gradient_descent_run(p, s, GD_STOP),
                golden))
    for name, problem in probs.items():
        solves.append(_nd_solve(
            f"{name}/dnewton/wolfe", problem,
            lambda p=problem: optimizer.newton_run(p, damped=True), golden))
    return Workload(solves, oracles)
