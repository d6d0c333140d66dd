#!/usr/bin/env python3
"""Record the cost of one descent direction against the dimension n.

    python3 scripts/bench_scaling.py --label L [--dims 10,20,40,80]
        [--out PATH]

For each n it builds perfbench/problems_nd.rotated_quartic with a fresh
rng of seed 0 and times descent_direction(obj, x0, g) at its start point
x0, with the gradient g passed as yand_run passes it: the best of 3 wall
times (time.perf_counter), with one BLAS thread. One more call, made
through perfbench/counting.Oracles under perfbench/tracing.Tracer, counts
the direction's oracle calls and records the inclusive seconds of each
stage: the frame, the block split, the classification, the Cholesky
solves and the scalar third-derivative oracle (t3), next to the whole
traced call. Today's matrix path makes one Hessian call, no gradient call
and m*m(m+1)/2 scalar third-derivative calls, m = n - 1. perfbench is
imported, not changed.

The record, with the environment it was taken in, goes to --out (default
BENCH_scaling_<L>.json at the repository root). Wall time on a shared host
is recorded, not gated; the counts are deterministic.
"""
import os

# Set before numpy is first imported: the blocks are at most (n-1)x(n-1)
# and BLAS threads only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

# Tracer.install wraps the traced functions of every module in
# tracing.TRACED, so all of them must be loaded: cli imports the rest.
import affinedescent.cli  # noqa: E402, F401
from affinedescent import descent_direction, direction  # noqa: E402
from counting import Oracles  # noqa: E402
from problems_nd import rotated_quartic  # noqa: E402
from tracing import Tracer  # noqa: E402

REPEATS = 3
# The traced spans of one direction; the record names each by its function.
STAGES = ("direction.descent_direction", "numerics.build_gradient_frame",
          "direction.block_decompose", "numerics.classify_symmetric",
          "numerics.solve_spd")


def environment() -> dict:
    commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                             "--dirty"], capture_output=True, text=True)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(),
            "commit": commit.stdout.strip() or None}


def traced(obj, x0, g) -> tuple[str, dict, dict]:
    """The case, oracle counts and per-stage seconds of one direction. The
    call goes through the module attribute, which the tracer wraps."""
    tracer, oracles = Tracer(), Oracles()
    oracles.tracer = tracer
    tracer.install()
    try:
        tracer.begin_pass()
        case = direction.descent_direction(oracles.wrap(obj), x0, g).case.value
        trace = tracer.end_pass()
    finally:
        tracer.uninstall()
    stages = {span.partition(".")[2]: trace.incl[span] for span in STAGES}
    stages["t3"] = trace.oracle_s["t3"]
    return case, oracles.counts, stages


def measure(n: int) -> dict:
    """The counts, stage seconds and best-of-REPEATS time of one direction
    at dimension n."""
    problem = rotated_quartic(f"rq{n}", n, np.random.default_rng(0))
    obj, x0 = problem.objective, problem.x0
    g = obj.gradient(x0)
    case, counts, stages = traced(obj, x0, g)
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        descent_direction(obj, x0, g)
        times.append(perf_counter() - start)
    return {"n": n, "m": n - 1, "case": case, "counts": counts,
            "best_s": min(times), "times_s": times, "stages_s": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--dims", default="10,20,40,80",
                        help="comma-separated dimensions")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_scaling_{args.label}.json"
    record = {
        "label": args.label,
        "problem": "perfbench/problems_nd.rotated_quartic, rng seed 0, at x0",
        "call": "descent_direction(obj, x0, g), g the gradient at x0",
        "timing": f"best of {REPEATS} wall seconds, one BLAS thread",
        "stages": "inclusive seconds of each stage in one more call, traced",
        "environment": environment(),
        "points": [],
    }
    for n in map(int, args.dims.split(",")):
        point = measure(n)
        record["points"].append(point)
        print(f"n = {n}: {point['best_s'] * 1e3:.3f} ms, {point['counts']}")
    out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
