"""Time one set-up in a fresh process: importing affinedescent, building
the workload's problems and generating its inputs. numpy is imported
first, untimed, because the host-speed samples need it (calibration.py).
Prints [wall seconds, reference seconds] as its last line.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
    with calibration.Sampler() as sampler:
        start = perf_counter()
        import workloads
        workloads.build(sys.argv[1], int(sys.argv[2]), ROOT, Path(tmp)).close()
        end = perf_counter()
    print(json.dumps(sampler.reference(start, end)))
