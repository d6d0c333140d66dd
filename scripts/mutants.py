#!/usr/bin/env python3
"""Mutation kill matrix: which one-line source mutants the test suite
catches.

    python3 scripts/mutants.py

Each entry of MUTANTS is (file under src/affinedescent/, old text, new
text, the claim the mutant breaks); each old text occurs exactly once in
its file. The unmutated suite runs first and must pass. Then, for each
mutant, src/ is copied to a temporary directory, the mutant is applied
there, and `python -m pytest -x -q` runs the repository's tests with
PYTHONPATH set to that copy and hypothesis seeded with HYPOTHESIS_SEED,
so that each kill can be reproduced. A mutant is killed when the run
fails; the first failing test id is printed.

Exits 1 when a mutant survives that EQUIVALENT does not list (with the
reason it cannot change an observable result), and 2 when the unmutated
suite fails or an old text is not found exactly once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Every run draws the same hypothesis examples, so a verdict is the same on
# every re-run.
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    claim: str


MUTANTS = [
    Mutant("direction.py", "(frame.grad_norm / (m + 2.0)) * s",
           "(frame.grad_norm / (m + 1.0)) * s",
           "the affine normal's third-derivative term has weight "
           "||g||/(m+2) (matrix path)"),
    Mutant("direction.py", "rhs = c - (gnorm / 3.0) * s3",
           "rhs = c - (gnorm / 2.0) * s3",
           "the same weight at m = 1 is ||g||/3 (planar path)"),
    Mutant("direction.py", "omega = cls_B.det_sign if tau.size % 2 else 1.0",
           "omega = cls_B.det_sign if not tau.size % 2 else 1.0",
           "the orientation sign is sign(det B) for an odd number of "
           "tangent directions, +1 for an even number"),
    Mutant("direction.py", "-1.0 if b < 0.0 else 1.0", "1.0",
           "the same orientation sign at m = 1 is sign(b) (planar path)"),
    Mutant("direction.py", "rhs = block.c - (frame.grad_norm",
           "rhs = block.c + (frame.grad_norm",
           "the third-derivative correction is subtracted from c"),
    Mutant("line_search.py", "max_slope = -C2 * dphi0",
           "max_slope = -C1 * dphi0",
           "strong Wolfe's curvature test reads C2"),
    Mutant("line_search.py",
           "f_trial <= f0 + SIGMA * alpha * dphi0:",
           "f_trial <= f0:",
           "Armijo accepts only on sufficient decrease"),
    Mutant("direction.py",
           "M[p, q] = [third(x, t_p, t_q, t_i) for t_i in rows]",
           "M[p, q] = [third(x, t_p, t_q, t_i) for t_i in rows[::-1]]",
           "the tangent third-derivative tensor is indexed t_p, t_q, t_i"),
    Mutant("problems.py", "return float(2400.0 * x[0] * u[0]",
           "return float(2406.0 * x[0] * u[0]",
           "Rosenbrock's fxxx = 2400 x1 (+0.25%)"),
    Mutant("problems.py", "- 400.0 * (u[0] * v[0] * w[1]",
           "- 402.0 * (u[0] * v[0] * w[1]",
           "Rosenbrock's fxxy = -400 (+0.5%)"),
    Mutant("direction.py", "step_scale = gnorm / s if s > floor else 1.0",
           "step_scale = 1.0 / s if s > floor else 1.0",
           "the step scale is ||g|| over the Schur complement"),
    Mutant("numerics.py", "DEGENERACY_TOL = 1e-10", "DEGENERACY_TOL = 1e-6",
           "a block is singular only within 1e-10 of its scale"),
    Mutant("numerics.py", "DEGENERACY_TOL = 1e-10", "DEGENERACY_TOL = 2e-10",
           "the same threshold is 1e-10 of the scale and not twice that"),
    Mutant("direction.py", "T_TANGENT = 1e12", "T_TANGENT = 1e3",
           "the direction falls back only at T >= 1e12"),
    Mutant("line_search.py", "if d * (hi - lo) >= 0.0:",
           "if d * (hi - lo) < 0.0:",
           "zoom moves hi to lo where the slope points into the bracket"),
    Mutant("slice_centroid.py", "    return -v\n", "    return v\n",
           "at a non-elliptic point the slice estimate is the raw outward "
           "difference"),
    Mutant("slice_centroid.py",
           "centroid_param = sum(0.5 * (b * b - a * a) for a, b in "
           "intervals) / total",
           "centroid_param = 0.5 * (intervals[0][0] + intervals[-1][1])",
           "the slice centroid weights its intervals by length"),
    Mutant("direction.py", "SCALE_FLOOR = 1e-12", "SCALE_FLOOR = 1e-3",
           "the step scale uses Schur complements down to 1e-12 of the "
           "block scale"),
    Mutant("direction.py", "SCALE_FLOOR = 1e-12", "SCALE_FLOOR = 2e-12",
           "the same floor is 1e-12 of the block scale and not twice that"),
    Mutant("direction.py", "+ 1e-8 * cls.scale", "+ 1e-4 * cls.scale",
           "the regularized Newton shift leaves a least eigenvalue of "
           "1e-8 of the scale"),
    Mutant("direction.py", "(frame.grad_norm / (m + 2.0)) * s",
           "(1.0 / (m + 2.0)) * s",
           "the third-derivative term scales with ||g||, so the direction "
           "is invariant under f -> phi(f) (matrix path)"),
    Mutant("direction.py", "rhs = c - (gnorm / 3.0) * s3",
           "rhs = c - (1.0 / 3.0) * s3",
           "the same scaling with ||g|| at m = 1 (planar path)"),
    Mutant("direction.py",
           "lambda: block.d_nn - float(block.c @ solve_symmetric(cls_B, "
           "block.c))",
           "lambda: block.d_nn",
           "the step scale divides by the Schur complement d_nn - c.B^-1 c "
           "(matrix path)"),
    Mutant("direction.py", "lambda: d_nn - c * solve(c), d_nn)",
           "lambda: d_nn, d_nn)",
           "the same Schur complement at m = 1 (planar path)"),
    Mutant("optimizer.py", "if gnorm <= stop.tol_grad:",
           "if gnorm < stop.tol_grad:",
           "the run stops at gradient norm <= tol_grad"),
    Mutant("line_search.py", "alpha = min(2.0 * alpha, ALPHA_MAX)",
           "alpha = min(4.0 * alpha, ALPHA_MAX)",
           "strong Wolfe's expansion doubles the trial step"),
    Mutant("direction.py", "T_TANGENT = 1e12", "T_TANGENT = 2e12",
           "the same fallback threshold is T = 1e12 and not twice that"),
    Mutant("line_search.py", "C2 = 0.9", "C2 = 0.5",
           "strong Wolfe's curvature constant C2 is 0.9"),
    Mutant("numerics.py", "if not math.isfinite(gnorm):",
           "if math.isnan(gnorm):",
           "the gradient frame rejects an infinite or overflowing norm"),
]

# Survivors that cannot change an observable result, by claim.
EQUIVALENT = {
    "the run stops at gradient norm <= tol_grad":
        "< and <= differ only where the gradient norm equals tol_grad "
        "exactly, which no tested run reaches",
}


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its source file."""
    path = ROOT / "src" / "affinedescent" / mutant.file
    return path.read_text().count(mutant.old)


def run_suite(src: Path) -> tuple[bool, str]:
    """Run the tests on the package under src, stopping at the first
    failure: (passed, first failing test id or "")."""
    # A cached bytecode file keys on the source's size and mtime in whole
    # seconds, which a mutant written in the same second may share.
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    # Run outside the repository, so that the mutants' failing examples
    # stay out of its hypothesis database.
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", f"--hypothesis-seed={HYPOTHESIS_SEED}",
             str(ROOT / "tests")],
            cwd=cwd, env=env, capture_output=True, text=True, check=False)
    # "FAILED <id> - <reason>", where a parametrized id may hold spaces
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return proc.returncode == 0, ""
    # pytest names the test file relative to cwd
    path, sep, name = failed[0].partition("::")
    path = os.path.relpath(os.path.normpath(os.path.join(cwd, path)), ROOT)
    return False, path + sep + name


def main() -> int:
    misplaced = [m for m in MUTANTS if occurrences(m) != 1]
    for m in misplaced:
        print(f"{m.file}: {m.old!r} occurs {occurrences(m)} times")
    if misplaced:
        return 2

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        passed, first = run_suite(src)
        if not passed:
            print(f"the unmutated suite fails: {first}")
            return 2
        survivors = []
        for m in MUTANTS:
            path = src / "affinedescent" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                passed, first = run_suite(src)
            finally:
                path.write_text(original)
            if passed:
                survivors.append(m)
                verdict = "survived"
            else:
                verdict = f"killed by {first}"
            print(f"{m.file}: {m.claim}: {verdict} "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)

    unexplained = [m for m in survivors if m.claim not in EQUIVALENT]
    print(f"{len(MUTANTS) - len(survivors)} killed, "
          f"{len(survivors) - len(unexplained)} equivalent, "
          f"{len(unexplained)} survived in "
          f"{time.perf_counter() - start:.0f} s")
    for m in survivors:
        if m.claim in EQUIVALENT:
            print(f"equivalent: {m.claim}: {EQUIVALENT[m.claim]}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
