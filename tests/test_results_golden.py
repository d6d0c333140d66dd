"""Regenerate every output of scripts/reproduce_all.py and compare it with the
committed results/*.csv.

Integer and text cells (iteration counts, k, the case column, pass/FAIL)
must match exactly; float cells must satisfy
|a - b| <= RTOL * max(|a|, |b|) + ATOL, the rule the benchmark's catalog2d
workload applies to the same files.
"""
import csv
import importlib.util
from pathlib import Path

import pytest

from affinedescent.cli import main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
RTOL = 1e-9
ATOL = 1e-12


def _reproduce_steps():
    spec = importlib.util.spec_from_file_location(
        "reproduce_all", ROOT / "scripts" / "reproduce_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STEPS


STEPS = _reproduce_steps()


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _mismatch(got: str, want: str) -> bool:
    if got == want:
        return False
    a, b = _float(got), _float(want)
    if want.lstrip("-").isdigit() or a is None or b is None:
        return True
    return abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_every_committed_result_is_regenerated():
    assert sorted(name for _, name in STEPS) == \
        sorted(p.name for p in RESULTS.glob("*.csv"))


@pytest.mark.parametrize("argv,filename", STEPS,
                         ids=[name[:-4] for _, name in STEPS])
def test_regenerated_csv_matches_committed(argv, filename, tmp_path, capsys):
    out = tmp_path / filename
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    got, want = _read(out), _read(RESULTS / filename)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_no, (g_row, w_row) in enumerate(zip(got, want), start=1):
        assert len(g_row) == len(w_row), f"row {row_no}"
        bad = [(g, w) for g, w in zip(g_row, w_row) if _mismatch(g, w)]
        assert not bad, f"{filename} row {row_no}: {bad}"


@pytest.mark.parametrize("got,want,differs", [
    ("1.0000000000000002", "1", True),        # integer cells are exact
    ("12*", "12", True),
    ("AN", "FlippedAN", True),
    ("0.50000000000000011", "0.5", False),    # floats within RTOL
    ("0.50000001", "0.5", True),
    ("-1e-13", "1e-13", False),               # ATOL near zero
])
def test_cell_rule(got, want, differs):
    assert _mismatch(got, want) is differs
