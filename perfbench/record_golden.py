"""Rewrite perfbench/golden.json from one pass of each workload.

    python3 perfbench/record_golden.py [SEED]

Records, per n-D solve, the iteration count and direction-case sequence,
and, per workload, the oracle counts of a pass that do not depend on the
seed; the benchmark requires them of every seed. Run it only when a change
is meant to alter them, and say why in the change.
"""
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import OUT_DIR, run_pass  # noqa: E402


# Counts that do not depend on the seed on the n-D workloads. The f and g
# counts do: rounding differs between rotations, and exact and Wolfe line
# searches branch on it. catalog2d's inputs do not depend on the seed.
SEED_INVARIANT = ("h", "t3", "iters")


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    golden = {"counts": {}}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for name in workloads.NAMES[1:]:
            wl = workloads.build(name, seed, ROOT, Path(tmp), golden={})
            golden[name] = {}
            for solve in wl.solves:
                report = solve.run()
                golden[name][solve.name] = {
                    "iters": report.iters,
                    "cases": " ".join(r.case for r in report.records[1:])}
        for name in workloads.NAMES:
            wl = workloads.build(name, seed, ROOT, Path(tmp), golden=golden)
            result = run_pass(wl)
            wl.close()
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            golden["counts"][name] = {
                k: v for k, v in result.counts.items()
                if name == "catalog2d" or k in SEED_INVARIANT}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
