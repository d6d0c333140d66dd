"""Command-line harness.

Subcommands:
  run PROBLEM METHOD LS   single optimization run, trajectory CSV + summary
  table2                  scaling sweep over the diagonal bowl family
  examples                hand-checked direction computations, report file
  invariance              scaling-equivalence deviations, CSV
  verify                  finite-difference derivative check on the catalog

Each subcommand takes --out, and invariance also --gammas, each spelled
in full: a prefix such as --ou is a usage error. Every run uses the
line searches' constants and the default stopping spec, and verify seeds
its sample points with 42; to change the stop, build a StoppingSpec in
the Python API. Every method of run takes the LS token: `newton fixed:1`
is classical Newton.

All floating-point output uses 17 significant digits; repeated invocations
with the same arguments produce byte-identical files.

Exit codes: 0 converged/ok, 1 bad input (a rejected flag, a ValueError or
an OSError), 2 iteration cap, 3 the numerics stopped (an AffineDescentError,
or a line-search failure, degeneracy, or a non-finite gradient, Hessian or
third derivative), 4 check failure. table2 and invariance write every row
and exit 3 when any of their runs ends with exit code 3, naming it on
stderr (a run at the iteration cap is data; table2 marks it N*), else
invariance 4 when a row's max_deviation exceeds 1e-6 or its scaled and
base runs take different numbers of iterations, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .direction import affine_normal_direction, newton_direction
from .errors import AffineDescentError
from .invariance import run_invariance
from .line_search import (ArmijoSearch, ExactSearch, FixedStep,
                          StrongWolfeSearch)
from .numerics import angle_between, positive_finite
from .objective import verify_derivatives
from .optimizer import (RunReport, RunStatus, StoppingSpec,
                        gradient_descent_run, newton_run, yand_run)
from .problems import CATALOG_NAMES, catalog, make_affine_scaled
from .slice_centroid import slice_centroid_direction

_SEARCHES = {"exact": ExactSearch(), "armijo": ArmijoSearch(),
             "wolfe": StrongWolfeSearch()}


def _fmt(v: float) -> str:
    return "%.17g" % v


def _write_lines(path: str | Path, lines: list[str]) -> None:
    """Write `lines`, each newline-terminated, over the file at `path`.

    The file is overwritten in place, not opened with O_TRUNC: truncating
    an existing file frees its blocks and allocates new ones, which costs
    far more than writing a small CSV. A regular file is cut to the bytes
    written afterwards, also when a write raises, so it never holds new
    bytes followed by old ones. An existing file keeps its inode and mode;
    a new one gets 0o666 less the umask. Devices and pipes are written
    and never truncated.
    """
    data = ("\n".join(lines) + "\n").encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode) and info.st_size != written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_trajectory_csv(report: RunReport, path: str | Path) -> None:
    dim = report.records[0].x.size
    header = ["k"] + [f"x{i + 1}" for i in range(dim)] + \
        ["f", "gnorm", "alpha", "case", "T", "cos_theta"]
    row = ",".join(["%d"] + ["%.17g"] * (dim + 3) + ["%s", "%.17g", "%.17g"])
    _write_lines(path, [",".join(header)] + [
        row % (r.k, *r.x.tolist(), r.f, r.grad_norm, r.alpha, r.case, r.T,
               r.cos_theta) for r in report.records])


def _parse_ls(token: str):
    if token in _SEARCHES:
        return _SEARCHES[token]
    if token.startswith("fixed:"):
        try:
            alpha = float(token[len("fixed:"):])
        except ValueError:
            raise ValueError(f"bad line search {token!r} (expected "
                             "fixed:ALPHA with ALPHA a number)") from None
        return FixedStep(alpha=alpha)
    raise ValueError(f"unknown line search {token!r} "
                     "(expected exact|armijo|wolfe|fixed:ALPHA)")


def _exit_code(status: RunStatus) -> int:
    """0 converged, 2 iteration cap, 3 any other end of the run."""
    if status is RunStatus.CONVERGED:
        return 0
    return 2 if status is RunStatus.MAX_ITER_REACHED else 3


def cmd_run(problem_name: str, method: str, ls_token: str,
            out_path: str | Path) -> int:
    problem = catalog(problem_name)
    ls = _parse_ls(ls_token)
    stop = StoppingSpec()
    if method == "yand":
        report = yand_run(problem, ls, stop)
    elif method == "gd":
        report = gradient_descent_run(problem, ls, stop)
    elif method in ("newton", "dnewton"):
        report = newton_run(problem, method == "dnewton", ls, stop)
    else:
        raise ValueError(f"unknown method {method!r} "
                         "(expected yand|gd|newton|dnewton)")
    write_trajectory_csv(report, out_path)
    final = report.final
    print(f"{report.status.value} {report.iters} {_fmt(final.f)} "
          f"{_fmt(final.grad_norm)}")
    return _exit_code(report.status)


TABLE2_GAMMAS = (1.0, 10.0, 1e2, 1e3, 1e4)
VERIFY_SEED = 42   # the seed that wrote results/verify.csv


def _count_cell(report: RunReport) -> str:
    if report.status is RunStatus.MAX_ITER_REACHED:
        return f"{report.iters}*"
    return str(report.iters)


def _sweep_exit_code(runs, broken=()) -> int:
    """3 when a run of a sweep could not continue (its _exit_code is 3),
    naming each, given as (gamma, name, report), on stderr: a run at the
    iteration cap is data. Else 4, printing each message of broken, or 0."""
    code = 0
    for gamma, name, report in runs:
        if _exit_code(report.status) == 3:
            print(f"gamma {_fmt(gamma)} {name}: {report.status.value} "
                  f"at k = {report.iters}", file=sys.stderr)
            code = 3
    if code == 0 and broken:
        print("\n".join(broken), file=sys.stderr)
        code = 4
    return code


def cmd_table2(out_path: str | Path) -> int:
    exact, wolfe, armijo = (_SEARCHES[name]
                            for name in ("exact", "wolfe", "armijo"))
    stop = StoppingSpec()
    columns = ["yand_exact", "yand_wolfe", "yand_armijo", "gd_exact",
               "gd_fixed", "newton"]
    lines = [",".join(["gamma", "kappaB", "kappaH"] + columns)]
    runs = []
    for gamma in TABLE2_GAMMAS:
        problem, _ = make_affine_scaled(gamma)
        reports = [
            yand_run(problem, exact, stop),
            yand_run(problem, wolfe, stop),
            yand_run(problem, armijo, stop),
            gradient_descent_run(problem, exact, stop),
            gradient_descent_run(
                problem, FixedStep(alpha=1.0 / (gamma * gamma)), stop),
            newton_run(problem, damped=False, stop=stop),
        ]
        lines.append(",".join([_fmt(gamma), _fmt(gamma), _fmt(gamma * gamma)]
                              + [_count_cell(r) for r in reports]))
        runs += [(gamma, c, r) for c, r in zip(columns, reports)]
    _write_lines(out_path, lines)
    return _sweep_exit_code(runs)


def _example_checks() -> list[tuple[str, float, float, float]]:
    """(label, computed, expected, tol) rows; a row passes when
    |computed - expected| <= tol."""
    checks: list[tuple[str, float, float, float]] = []

    # 2-variable quadratic at (2,0): tangential coefficient and direction
    p51 = catalog("quad_51")
    x51 = np.array([2.0, 0.0])
    res51 = affine_normal_direction(p51.objective, x51)
    d = res51.d
    t_hat = np.array([4.0, 1.0]) / np.sqrt(17.0)
    checks.append(("quad_51_tau", float(d @ t_hat), -0.6, 1e-12))
    checks.append(("quad_51_tau_coeff", res51.T, 0.6, 1e-12))
    checks.append(("quad_51_dir_angle",
                   angle_between(d, np.array([-1.0, 1.0])), 0.0, 1e-10))
    d_newton = newton_direction(p51.objective, x51)
    checks.append(("quad_51_newton_angle",
                   angle_between(d, d_newton), 0.0, 1e-10))
    sc = slice_centroid_direction(p51.objective, x51, delta=1e-3)
    checks.append(("quad_51_slice_angle", angle_between(sc, d), 0.0, 1e-2))

    # 3-variable quadratic at (2,0,0): direction is the negative unit gradient
    p52 = catalog("quad_52")
    x52 = np.array([2.0, 0.0, 0.0])
    d52 = affine_normal_direction(p52.objective, x52).d
    for i, expect in enumerate((-1.0, 0.0, 0.0)):
        checks.append((f"quad_52_d{i + 1}", float(d52[i]), expect, 1e-12))

    # nonquadratic at (1,1): third-derivative correction kicks in
    p53 = catalog("convex_53")
    x53 = np.array([1.0, 1.0])
    d53 = affine_normal_direction(p53.objective, x53).d
    t53 = np.array([-3.0, 1.0]) / np.sqrt(10.0)
    checks.append(("convex_53_tau", float(d53 @ t53), 0.7687, 1e-3))
    checks.append(("convex_53_d1", float(d53[0]), -1.0454, 1e-3))
    checks.append(("convex_53_d2", float(d53[1]), -0.7056, 1e-3))
    g53 = p53.objective.gradient(x53)
    checks.append(("convex_53_descent", float(g53 @ d53), -4.2164, 1e-3))

    # nonconvex counterexample: slice estimate points uphill
    pce = catalog("counterexample")
    z = np.zeros(2)
    d_sc = slice_centroid_direction(pce.objective, z, delta=1e-2)
    checks.append(("counterexample_angle",
                   angle_between(d_sc, np.array([0.0, 1.0])), 0.0, 1e-6))
    ascent = float(pce.objective.gradient(z) @ d_sc)
    checks.append(("counterexample_ascent_sign", 1.0 if ascent > 0 else 0.0,
                   1.0, 0.0))
    return checks


def _check_table(header: str, rows, out_path: str | Path) -> int:
    """Write the header and one line per row, each row's cells joined with
    pass or FAIL, to out_path and stdout; 0, or 4 on any FAIL. rows gives
    (cells, passed) pairs."""
    lines = [header]
    ok = True
    for cells, passed in rows:
        ok = ok and passed
        lines.append(",".join(cells + ["pass" if passed else "FAIL"]))
    _write_lines(out_path, lines)
    print("\n".join(lines))
    return 0 if ok else 4


def cmd_examples(out_path: str | Path) -> int:
    rows = [([label, _fmt(computed), _fmt(expected), _fmt(tol)],
             abs(computed - expected) <= tol)
            for label, computed, expected, tol in _example_checks()]
    return _check_table("check,computed,expected,tol,pass", rows, out_path)


def cmd_invariance(gammas, out_path: str | Path) -> int:
    base = catalog("strongly_convex_base")
    exact, stop = _SEARCHES["exact"], StoppingSpec()
    lines = ["gamma,max_deviation,iters_scaled,iters_base"]
    runs, broken = [], []
    for gamma in gammas:
        rep = run_invariance(base, np.diag([1.0, gamma]), exact, stop)
        deviation = max(rep.per_iterate_deviation)
        lines.append(f"{_fmt(gamma)},{_fmt(deviation)},"
                     f"{rep.scaled.iters},{rep.base.iters}")
        runs += [(gamma, "scaled", rep.scaled), (gamma, "base", rep.base)]
        if deviation > 1e-6:   # criterion 12's bound on ||B x_k - y_k||
            broken.append(f"gamma {_fmt(gamma)}: max_deviation > 1e-6")
        if rep.scaled.iters != rep.base.iters:
            broken.append(f"gamma {_fmt(gamma)}: iters_scaled != iters_base")
    _write_lines(out_path, lines)
    return _sweep_exit_code(runs, broken)


def _verify_points(problem, rng) -> list[np.ndarray]:
    """Five deterministic in-domain sample points per problem."""
    radius = 0.3
    if problem.name == "inverse_barrier":
        anchor = np.array([-0.2, -0.2])   # keeps the barrier slack in [0.8, 2]
    else:
        anchor = np.asarray(problem.x0, dtype=float)
    points = []
    while len(points) < 5:
        p = anchor + radius * rng.uniform(-1.0, 1.0, size=problem.objective.dim)
        if problem.objective.in_domain(p):
            points.append(p)
    return points


def cmd_verify(out_path: str | Path) -> int:
    rng = np.random.default_rng(VERIFY_SEED)
    rows = []
    for problem in (catalog(name) for name in CATALOG_NAMES):
        report = verify_derivatives(problem.objective,
                                    _verify_points(problem, rng), rng=rng)
        rows.append(([problem.name, _fmt(report.grad_err),
                      _fmt(report.hess_err), _fmt(report.third_err)],
                     report.ok))
    return _check_table("problem,grad_err,hess_err,third_err,pass", rows,
                        out_path)


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # exit 1 on bad arguments, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_subcommand(sub, name: str, summary: str, out: str):
    """A subcommand that writes to --out."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.add_argument("--out", help=f"output file path (default {out})")
    p.set_defaults(out=out)
    return p


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves no state in it): scripts/reproduce_all.py calls main
    once per step in one process."""
    parser = _Parser(prog="affinedescent", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter,
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = _add_subcommand(sub, "run", "single optimization run",
                            "trajectory.csv")
    p_run.add_argument("problem", help=f"one of: {', '.join(CATALOG_NAMES)}")
    p_run.add_argument("method", help="yand|gd|newton|dnewton")
    p_run.add_argument("ls", help="exact|armijo|wolfe|fixed:ALPHA")
    _add_subcommand(sub, "table2", "scaling sweep on the diagonal bowl family",
                    "table2.csv")
    _add_subcommand(sub, "examples", "hand-checked direction computations",
                    "examples.csv")
    p_inv = _add_subcommand(sub, "invariance",
                            "scaling-equivalence deviations", "invariance.csv")
    p_inv.add_argument("--gammas", default="10,100,10000",
                       help="comma-separated scaling factors")
    _add_subcommand(sub, "verify", "finite-difference derivative check",
                    "verify.csv")
    return parser


def _parse_gammas(text: str) -> list[float]:
    """The comma-separated scalings of --gammas, each finite and positive.
    An item that is not a number, an empty one included, is an error, so
    the list is never empty."""
    try:
        gammas = [float(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"--gammas: expected comma-separated numbers, such "
                         f"as 10,100, got {text!r}") from None
    for gamma in gammas:
        positive_finite("gammas", gamma)
    return gammas


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.problem, args.method, args.ls, args.out)
        if args.command == "table2":
            return cmd_table2(args.out)
        if args.command == "examples":
            return cmd_examples(args.out)
        if args.command == "invariance":
            return cmd_invariance(_parse_gammas(args.gammas), args.out)
        return cmd_verify(args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AffineDescentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
