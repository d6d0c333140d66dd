"""Regenerate every output of scripts/reproduce_all.py and compare it with the
committed results/*.csv.

The rule is perfbench/workloads.py's compare_csv, which the benchmark's
catalog2d workload applies to the same files: integer and text cells
(iteration counts, k, the case column, pass/FAIL) must match exactly, and
float cells must satisfy |a - b| <= 1e-9 * max(|a|, |b|) + 1e-12. The module
is imported, not changed.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from affinedescent.cli import main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
sys.path.append(str(ROOT / "perfbench"))

from workloads import compare_csv  # noqa: E402


def _reproduce_steps():
    spec = importlib.util.spec_from_file_location(
        "reproduce_all", ROOT / "scripts" / "reproduce_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STEPS


STEPS = _reproduce_steps()


def test_every_committed_result_is_regenerated():
    assert sorted(name for _, name in STEPS) == \
        sorted(p.name for p in RESULTS.glob("*.csv"))


@pytest.mark.parametrize("argv,filename", STEPS,
                         ids=[name[:-4] for _, name in STEPS])
def test_regenerated_csv_matches_committed(argv, filename, tmp_path, capsys):
    out = tmp_path / filename
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert compare_csv(out, RESULTS / filename)[0] is None
    if argv[0] in ("verify", "examples"):   # check tables echo their rows
        assert stdout == out.read_text()


@pytest.mark.parametrize("got,want,differs", [
    ("1.0000000000000002", "1", True),        # integer cells are exact
    ("12*", "12", True),
    ("AN", "FlippedAN", True),
    ("0.50000000000000011", "0.5", False),    # floats within 1e-9 relative
    ("0.50000001", "0.5", True),
    ("-1e-13", "1e-13", False),               # 1e-12 absolute near zero
])
def test_cell_rule(got, want, differs, tmp_path):
    """One cell under a shared header, which compare_csv checks exactly."""
    paths = tmp_path / "got.csv", tmp_path / "want.csv"
    for path, cell in zip(paths, (got, want)):
        path.write_text(f"cell\n{cell}\n")
    assert (compare_csv(*paths)[0] is not None) is differs
