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

# (argv without --out, output file name) of every step, in run order
STEPS = [(["verify"], "verify.csv"), (["examples"], "examples.csv"),
         (["table2"], "table2.csv"),
         (["invariance", "--gammas", "10,100,10000"], "invariance.csv")]
STEPS += [(["run", p, m, ls], f"traj_{p}_{m}_{ls}.csv")
          for p, m, ls in TRAJECTORY_RUNS]


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
    for argv, filename in STEPS:
        ok &= run_step(argv + ["--out", str(out_dir / filename)])

    print(f"\nresults written to {out_dir}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
