#!/usr/bin/env python3
"""Reproduce every experiment table and trajectory in one go.

Drives the affinedescent CLI and collects its CSV outputs under a results
directory (default: results/ next to the repository root). Exits nonzero
if any step reports a failure, so the script doubles as a smoke check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from affinedescent.cli import main as cli_main

TRAJECTORY_RUNS = [
    # (problem, method, line search) for per-iterate CSV trajectories
    ("quad_well", "yand", "exact"),
    ("quad_51", "yand", "exact"),
    ("convex_53", "yand", "exact"),
    ("poly6", "yand", "armijo"),
    ("inverse_barrier", "yand", "exact"),
    ("inverse_barrier", "yand", "armijo"),
    ("inverse_barrier", "yand", "wolfe"),
    ("rosenbrock", "yand", "exact"),
    ("rosenbrock", "yand", "armijo"),
    ("rosenbrock", "yand", "wolfe"),
    ("rosenbrock", "dnewton", "wolfe"),
    ("ring_tilted", "yand", "exact"),
    ("saddle_poly", "yand", "exact"),
    ("four_well", "yand", "exact"),
]


def run_step(argv: list[str]) -> bool:
    code = cli_main(argv)
    ok = code == 0
    print(f"[{'ok' if ok else 'FAIL'}] affinedescent {' '.join(argv)} "
          f"-> exit {code}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default=None,
        help="directory for CSV outputs (default: <repo>/results)")
    args = parser.parse_args()

    if args.out_dir is None:
        out_dir = Path(__file__).resolve().parent.parent / "results"
    else:
        out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ok = True
    ok &= run_step(["verify", "--out", str(out_dir / "verify.csv")])
    ok &= run_step(["examples", "--out", str(out_dir / "examples.csv")])
    ok &= run_step(["table2", "--out", str(out_dir / "table2.csv")])
    ok &= run_step(["invariance", "--gammas", "10,100,10000",
                    "--out", str(out_dir / "invariance.csv")])
    for problem, method, ls in TRAJECTORY_RUNS:
        out = out_dir / f"traj_{problem}_{method}_{ls}.csv"
        ok &= run_step(["run", problem, method, ls, "--out", str(out)])

    print(f"\nresults written to {out_dir}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
