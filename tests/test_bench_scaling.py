"""scripts/bench_scaling.py at n = 10: the record it writes, the oracle
calls of one direction, which are deterministic, and the stages it times,
whose seconds are not."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_records_the_counts_of_one_direction(tmp_path):
    out = tmp_path / "scaling.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_scaling.py"),
                    "--label", "smoke", "--dims", "10", "--out", str(out)],
                   check=True, capture_output=True, timeout=60)
    record = json.loads(out.read_text())
    assert record["label"] == "smoke"
    assert record["environment"]["blas_threads"] == "1"
    (point,) = record["points"]
    assert (point["n"], point["m"], point["case"]) == (10, 9, "AN")
    # one Hessian, no gradient (it is passed), and the m x m(m+1)/2 = 405
    # scalar third derivatives of the tangent tensor
    assert point["counts"] == {"f": 0, "g": 0, "h": 1, "t3": 405}
    assert len(point["times_s"]) == 3
    assert point["best_s"] == min(point["times_s"]) > 0.0
    assert set(point["stages_s"]) == {
        "descent_direction", "build_gradient_frame", "block_decompose",
        "classify_symmetric", "solve_spd", "t3"}
