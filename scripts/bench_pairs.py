#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of a parent commit and the
working tree in alternating pairs of runs.

    python3 scripts/bench_pairs.py --workload catalog2d [--parent HEAD]
        [--seed 1] [--pairs 10]

The parent side runs in a temporary directory holding the committed
files of --parent (git archive), the change side in the working tree
that holds this script. Each pair runs both sides once, and the side
that runs first alternates. The benchmark command, the run length and
the end-to-end metrics, with their direction and bound, are read from
the working tree's BENCHMARK.json.

For each metric it prints the parent's median [q1, q3], the change's
median [q1, q3], the relative change of the medians, the bound and the
pairs the change won (ties count for neither side), then a verdict:

- worse: the change's median is worse than the parent's by more than
  the bound;
- unresolved: otherwise, when either side's spread q3 - q1 is wider
  than the bound, unless every change run is better than every parent
  run;
- better: at least ten pairs ran, the change won at least nine tenths
  of them, and the medians differ by more than the parent's q3 - q1;
- changed: a count whose median differs from the parent's, though by
  no more than the bound; counts repeat exactly for a seed, so any
  difference is a change of the program;
- same: none of these.

Runs that were not "correct", and failed solves, are counted per side.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MIN_CLAIM_PAIRS = 10
MIN_WIN_SHARE = 0.9


def export_commit(root: Path, ref: str, dest: Path) -> None:
    """The committed files of ref, written under dest."""
    archive = subprocess.run(["git", "-C", str(root), "archive", ref],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(command: list[str], cwd: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The last-line JSON record of one untraced benchmark run."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark run in {cwd} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Summary of one metric, a BENCHMARK.json end_to_end entry, over
    paired runs: parent[i] and change[i] ran in the same pair."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    rel = (cm - pm) / abs(pm) if pm else 0.0
    bound = spec["bound"]
    scale = abs(pm) if pm else 1.0
    if sign * rel > bound:
        verdict = "worse"
    elif max(p3 - p1, c3 - c1) > bound * scale and not \
            all(sign * (c - p) < 0.0 for c in change for p in parent):
        verdict = "unresolved"
    elif len(parent) >= MIN_CLAIM_PAIRS and \
            won >= MIN_WIN_SHARE * len(parent) and abs(cm - pm) > p3 - p1:
        verdict = "better"
    elif spec["unit"] == "count" and cm != pm:
        verdict = "changed"
    else:
        verdict = "same"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "rel": rel,
            "won": won, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD",
                        help="git ref of the parent side (default: HEAD)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    specs = bench["end_to_end"]
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export_commit(root, args.parent, Path(tmp))
        cwd = {"parent": Path(tmp), "change": root}
        for i in range(args.pairs):
            order = ["parent", "change"]
            for side in order if i % 2 == 0 else reversed(order):
                runs[side].append(run_once(bench["command"], cwd[side],
                                           args.workload, args.seed,
                                           bench["run_seconds"]))
                print(f"# pair {i + 1}/{args.pairs} {side} done",
                      file=sys.stderr, flush=True)

    print(f"# {args.workload} seed={args.seed}: {args.pairs} pairs of "
          f"{bench['run_seconds']} s runs, parent {args.parent} against "
          f"the working tree")
    for side, records in runs.items():
        print(f"# {side}: {sum(not r['correct'] for r in records)} of "
              f"{len(records)} runs not correct, "
              f"{sum(r['failed'] for r in records)} of "
              f"{sum(r['attempted'] for r in records)} solves failed")
    for spec in specs:
        name = spec["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        row = compare(spec, parent, change)
        (pm, p1, p3), (cm, c1, c3) = row["parent"], row["change"]
        f = ".0f" if spec["unit"] == "count" else ".4g"
        print(f"{name:12s} {pm:{f}} [{p1:{f}}, {p3:{f}}] -> "
              f"{cm:{f}} [{c1:{f}}, {c3:{f}}] {spec['unit']}  "
              f"{row['rel']:+.1%} (bound {spec['bound']:.0%}, "
              f"{spec['better']} is better)  won {row['won']}/{args.pairs}  "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
