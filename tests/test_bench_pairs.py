"""The verdicts of scripts/bench_pairs.py on paired runs made up here."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = _bench_pairs().compare
LOWER = {"better": "lower", "bound": 0.2}
HIGHER = {"better": "higher", "bound": 0.2}
PARENT = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]


@pytest.mark.parametrize("spec, change, verdict, won", [
    (LOWER, [v * 1.3 for v in PARENT], "worse", 0),
    (HIGHER, [v * 0.7 for v in PARENT], "worse", 0),
    (LOWER, [v * 0.5 for v in PARENT], "better", 10),
    (HIGHER, [v * 1.5 for v in PARENT], "better", 10),
    # ties count for neither side
    (LOWER, PARENT, "same", 0),
    # a wide spread on one side leaves a small shift unresolved
    (LOWER, [0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.4, 0.6, 1.05],
     "unresolved", 5),
    # unless every change run is better than every parent run
    ({"better": "lower", "bound": 0.01}, [v - 0.05 for v in PARENT],
     "better", 10)])
def test_verdicts(spec, change, verdict, won):
    row = compare(spec, PARENT, change)
    assert row["verdict"] == verdict
    assert row["won"] == won
    assert row["parent"][0] == 1.0


def test_fewer_than_ten_pairs_claim_no_gain():
    assert compare(LOWER, PARENT[:9], [0.5] * 9)["verdict"] == "same"
    assert compare(LOWER, PARENT[:9], [1.5] * 9)["verdict"] == "worse"
