"""Command-line harness.

Subcommands:
  run PROBLEM METHOD LS   single optimization run, trajectory CSV + summary
  table2                  scaling sweep over the diagonal bowl family
  examples                hand-checked direction computations, report file
  invariance              scaling-equivalence deviations, CSV
  verify                  finite-difference derivative check on the catalog

All floating-point output uses 17 significant digits; repeated invocations
with the same config and seed produce byte-identical files.

Exit codes: 0 converged/ok, 1 bad arguments, 2 iteration cap, 3 line-search
failure, degeneracy, or a non-finite gradient, Hessian or third derivative,
4 check failure.
"""
from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import dataclass, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .direction import affine_normal_direction, newton_direction
from .errors import AffineDescentError, UnknownProblem
from .invariance import run_invariance
from .line_search import (ArmijoSearch, ExactSearch, FixedStep,
                          StrongWolfeSearch)
from .numerics import angle_between, positive_finite
from .objective import verify_derivatives
from .optimizer import (RunReport, RunStatus, StoppingSpec,
                        gradient_descent_run, newton_run, yand_run)
from .problems import CATALOG_NAMES, catalog, make_affine_scaled
from .slice_centroid import SliceParams, slice_centroid_direction


@dataclass(frozen=True)
class Config:
    """Settings from a config file and flags. A spec field left as None
    takes the default of the spec that uses it (see _spec)."""

    tol_grad: float | None = None
    max_iter: int | None = None
    alpha0: float | None = None
    alpha_max: float | None = None
    beta: float | None = None
    c1: float | None = None
    c2: float | None = None
    sigma: float | None = None
    seed: int = 42


_INT_KEYS = {"max_iter", "seed"}


def parse_config_file(path: str | Path) -> Config:
    """Plain key=value lines; '#' starts a comment; blank lines ignored."""
    values = {}
    known = {f.name for f in fields(Config)}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = int(val) if key in _INT_KEYS else float(val)
    return Config(**values)


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.17g}"
    return str(v)


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
    lines = [",".join(header)]
    for r in report.records:
        cells = [str(r.k)] + [_fmt(c) for c in r.x] + [
            _fmt(r.f), _fmt(r.grad_norm), _fmt(r.alpha), r.case,
            _fmt(r.T), _fmt(r.cos_theta)]
        lines.append(",".join(cells))
    _write_lines(path, lines)


def _spec(cls, cfg: Config):
    """A cls (StoppingSpec or a line-search spec) built from the keys of
    cfg that are set; the spec's own defaults fill the rest."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cls)}
    return cls(**{k: v for k, v in values.items() if v is not None})


_SEARCHES = {"exact": ExactSearch, "armijo": ArmijoSearch,
             "wolfe": StrongWolfeSearch}


def _parse_ls(token: str, cfg: Config):
    if token in _SEARCHES:
        # all three are built, so a bad value of any step key is an error
        # whichever search runs
        specs = {name: _spec(cls, cfg) for name, cls in _SEARCHES.items()}
        return specs[token]
    if token.startswith("fixed:"):
        return FixedStep(alpha=float(token.split(":", 1)[1]))
    raise ValueError(f"unknown line search {token!r} "
                     "(expected exact|armijo|wolfe|fixed:ALPHA)")


_EXIT_BY_STATUS = {
    RunStatus.CONVERGED: 0,
    RunStatus.MAX_ITER_REACHED: 2,
    RunStatus.LINE_SEARCH_FAILURE: 3,
    RunStatus.DEGENERATE_STOP: 3,
    RunStatus.NON_FINITE_GRADIENT: 3,
    RunStatus.NON_FINITE_HESSIAN: 3,
    RunStatus.NON_FINITE_THIRD: 3,
}


def cmd_run(problem_name: str, method: str, ls_token: str, cfg: Config,
            out_path: str | Path) -> int:
    problem = catalog(problem_name)
    ls = _parse_ls(ls_token, cfg)
    stop = _spec(StoppingSpec, cfg)
    if method == "yand":
        report = yand_run(problem, ls, stop)
    elif method == "gd":
        report = gradient_descent_run(problem, ls, stop)
    elif method == "newton":
        report = newton_run(problem, damped=False, stop=stop)
    elif method == "dnewton":
        report = newton_run(problem, damped=True, ls=ls, stop=stop)
    else:
        raise ValueError(f"unknown method {method!r} "
                         "(expected yand|gd|newton|dnewton)")
    write_trajectory_csv(report, out_path)
    final = report.final
    print(f"{report.status.value} {report.iters} {_fmt(final.f)} "
          f"{_fmt(final.grad_norm)}")
    return _EXIT_BY_STATUS[report.status]


TABLE2_GAMMAS = (1.0, 10.0, 1e2, 1e3, 1e4)


def _count_cell(report: RunReport) -> str:
    if report.status is RunStatus.MAX_ITER_REACHED:
        return f"{report.iters}*"
    return str(report.iters)


def cmd_table2(cfg: Config, out_path: str | Path) -> int:
    exact, wolfe, armijo = (_parse_ls(t, cfg)
                            for t in ("exact", "wolfe", "armijo"))
    stop = _spec(StoppingSpec, cfg)
    lines = ["gamma,kappaB,kappaH,yand_exact,yand_wolfe,yand_armijo,"
             "gd_exact,gd_fixed,newton"]
    for gamma in TABLE2_GAMMAS:
        problem, scaling = make_affine_scaled(gamma)
        cells = [
            _fmt(gamma), _fmt(gamma), _fmt(gamma * gamma),
            _count_cell(yand_run(problem, exact, stop)),
            _count_cell(yand_run(problem, wolfe, stop)),
            _count_cell(yand_run(problem, armijo, stop)),
            _count_cell(gradient_descent_run(problem, exact, stop)),
            _count_cell(gradient_descent_run(
                problem, FixedStep(alpha=1.0 / (gamma * gamma)), stop)),
            _count_cell(newton_run(problem, damped=False, stop=stop)),
        ]
        lines.append(",".join(cells))
    _write_lines(out_path, lines)
    return 0


def _example_checks() -> list[tuple[str, float, float, float]]:
    """(label, computed, expected, tol) rows; a row passes when
    |computed - expected| <= tol."""
    checks: list[tuple[str, float, float, float]] = []

    # 2-variable quadratic at (2,0): tangential coefficient and direction
    p51 = catalog("quad_51")
    x51 = np.array([2.0, 0.0])
    tau, d = affine_normal_direction(p51.objective, x51)
    t_hat = np.array([4.0, 1.0]) / np.sqrt(17.0)
    checks.append(("quad_51_tau", float(d @ t_hat), -0.6, 1e-12))
    checks.append(("quad_51_tau_coeff", float(np.linalg.norm(tau)), 0.6, 1e-12))
    checks.append(("quad_51_dir_angle",
                   angle_between(d, np.array([-1.0, 1.0])), 0.0, 1e-10))
    d_newton = newton_direction(p51.objective, x51)
    checks.append(("quad_51_newton_angle",
                   angle_between(d, d_newton), 0.0, 1e-10))
    sc = slice_centroid_direction(p51.objective, x51, SliceParams(delta=1e-3))
    checks.append(("quad_51_slice_angle", angle_between(sc, d), 0.0, 1e-2))

    # 3-variable quadratic at (2,0,0): direction is the negative unit gradient
    p52 = catalog("quad_52")
    x52 = np.array([2.0, 0.0, 0.0])
    _, d52 = affine_normal_direction(p52.objective, x52)
    for i, expect in enumerate((-1.0, 0.0, 0.0)):
        checks.append((f"quad_52_d{i + 1}", float(d52[i]), expect, 1e-12))

    # nonquadratic at (1,1): third-derivative correction kicks in
    p53 = catalog("convex_53")
    x53 = np.array([1.0, 1.0])
    _, d53 = affine_normal_direction(p53.objective, x53)
    t53 = np.array([-3.0, 1.0]) / np.sqrt(10.0)
    checks.append(("convex_53_tau", float(d53 @ t53), 0.7687, 1e-3))
    checks.append(("convex_53_d1", float(d53[0]), -1.0454, 1e-3))
    checks.append(("convex_53_d2", float(d53[1]), -0.7056, 1e-3))
    g53 = p53.objective.gradient(x53)
    checks.append(("convex_53_descent", float(g53 @ d53), -4.2164, 1e-3))

    # nonconvex counterexample: slice estimate points uphill
    pce = catalog("counterexample")
    z = np.zeros(2)
    d_sc = slice_centroid_direction(pce.objective, z, SliceParams(delta=1e-2))
    checks.append(("counterexample_angle",
                   angle_between(d_sc, np.array([0.0, 1.0])), 0.0, 1e-6))
    ascent = float(pce.objective.gradient(z) @ d_sc)
    checks.append(("counterexample_ascent_sign", 1.0 if ascent > 0 else 0.0,
                   1.0, 0.0))
    return checks


def cmd_examples(out_path: str | Path) -> int:
    rows = _example_checks()
    lines = ["check,computed,expected,tol,pass"]
    ok = True
    for label, computed, expected, tol in rows:
        passed = abs(computed - expected) <= tol
        ok = ok and passed
        lines.append(f"{label},{_fmt(computed)},{_fmt(expected)},{_fmt(tol)},"
                     f"{'pass' if passed else 'FAIL'}")
    _write_lines(out_path, lines)
    print("\n".join(lines))
    return 0 if ok else 4


def cmd_invariance(gammas, cfg: Config, out_path: str | Path) -> int:
    base = catalog("strongly_convex_base")
    stop = _spec(StoppingSpec, cfg)
    exact = _spec(ExactSearch, cfg)
    for gamma in gammas:
        positive_finite("gammas", gamma)
    lines = ["gamma,max_deviation,iters_scaled,iters_base"]
    for gamma in gammas:
        rep = run_invariance(base, np.diag([1.0, float(gamma)]), exact, stop)
        lines.append(f"{_fmt(float(gamma))},{_fmt(rep.max_deviation)},"
                     f"{rep.iters_scaled},{rep.iters_base}")
    _write_lines(out_path, lines)
    return 0


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


def cmd_verify(cfg: Config, out_path: str | Path, problems=None) -> int:
    rng = np.random.default_rng(cfg.seed)
    lines = ["problem,grad_err,hess_err,third_err,pass"]
    ok = True
    if problems is None:
        problems = [catalog(name) for name in CATALOG_NAMES]
    for problem in problems:
        report = verify_derivatives(problem.objective,
                                    _verify_points(problem, rng), rng=rng)
        ok = ok and report.ok
        lines.append(f"{problem.name},{_fmt(report.grad_err)},"
                     f"{_fmt(report.hess_err)},{_fmt(report.third_err)},"
                     f"{'pass' if report.ok else 'FAIL'}")
    _write_lines(out_path, lines)
    print("\n".join(lines))
    return 0 if ok else 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # exit 1 on bad arguments, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves no state in it): scripts/reproduce_all.py calls main
    once per step in one process."""
    parser = _Parser(prog="affinedescent", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--out", default=None, help="output file path")
    common.add_argument("--tol-grad", type=float, default=None)
    common.add_argument("--max-iter", type=int, default=None)
    common.add_argument("--sigma", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common],
                           help="single optimization run")
    p_run.add_argument("problem", help=f"one of: {', '.join(CATALOG_NAMES)}")
    p_run.add_argument("method", help="yand|gd|newton|dnewton")
    p_run.add_argument("ls", help="exact|armijo|wolfe|fixed:ALPHA")
    sub.add_parser("table2", parents=[common],
                   help="scaling sweep on the diagonal bowl family")
    sub.add_parser("examples", parents=[common],
                   help="hand-checked direction computations")
    p_inv = sub.add_parser("invariance", parents=[common],
                           help="scaling-equivalence deviations")
    p_inv.add_argument("--gammas", default="10,100,10000",
                       help="comma-separated scaling factors")
    sub.add_parser("verify", parents=[common],
                   help="finite-difference derivative check")
    return parser


_DEFAULT_OUT = {
    "run": "trajectory.csv",
    "table2": "table2.csv",
    "examples": "examples.csv",
    "invariance": "invariance.csv",
    "verify": "verify.csv",
}


def _load_config(args) -> Config:
    """The config file, or the defaults, with every flag given overriding
    its key."""
    cfg = parse_config_file(args.config) if args.config else Config()
    flags = {key: getattr(args, key)
             for key in ("tol_grad", "max_iter", "sigma", "seed")}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = args.out or _DEFAULT_OUT[args.command]
        if args.command == "run":
            return cmd_run(args.problem, args.method, args.ls, cfg, out)
        if args.command == "table2":
            return cmd_table2(cfg, out)
        if args.command == "examples":
            return cmd_examples(out)
        if args.command == "invariance":
            gammas = [float(g) for g in args.gammas.split(",") if g]
            return cmd_invariance(gammas, cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        raise ValueError(f"unknown command {args.command!r}")
    except (UnknownProblem, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AffineDescentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
