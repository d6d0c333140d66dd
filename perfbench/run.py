#!/usr/bin/env python3
"""affinedescent benchmark.

    python3 perfbench/run.py --workload {catalog2d,direction_nd,baselines_nd}
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src, and the
workloads are described in perfbench/workloads.py. One run sets up the
workload, runs one warm-up pass, then measures passes until the next one
would end after S seconds (at least MIN_PASSES). Every solve's output is
checked in every pass, and the oracle counts of every pass must be equal.

--trace 0 prints the end-to-end metrics. Their times are reference seconds:
wall time scaled by the host speed sampled during the work, because a
shared host can change speed by 2x within minutes (see calibration.py).
Raw wall seconds are printed beside them.

--trace 1 alternates traced and untraced passes and prints per-layer
metrics from spans recorded around each module's public functions
(perfbench/tracing.py), in wall seconds. Its spans and the environment go
to .bench_out/trace-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import os

# Every matrix is at most 40x40; BLAS threads only add contention. Must be
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog2d", "direction_nd", "baselines_nd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine()}


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, reference) set-up seconds of SETUP_PROBES fresh processes,
    run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


class PassResult:
    def __init__(self, solve_s, ref_solve_s, counts, failures, trace=None):
        self.solve_s = solve_s            # wall seconds per solve
        self.ref_solve_s = ref_solve_s    # reference seconds, if calibrated
        self.pass_s = sum(solve_s)
        self.ref_pass_s = sum(ref_solve_s) if ref_solve_s else None
        self.counts = counts
        self.failures = failures
        self.trace = trace


def run_pass(wl, tracer=None, sampler=None) -> PassResult:
    """Run every solve once, then check the outputs. With a sampler, solve
    times are also given in reference seconds (see calibration.py)."""
    wl.oracles.reset()
    results, spans = [], []
    if tracer is not None:
        tracer.begin_pass()
    for i, solve in enumerate(wl.solves):
        if tracer is not None:
            tracer.solve = i
        t = perf_counter()
        try:
            results.append(solve.run())
        except Exception as exc:  # a failed solve is counted, not fatal
            results.append(exc)
        spans.append((t, perf_counter()))
    trace = tracer.end_pass() if tracer is not None else None
    if sampler is not None:
        sampler.sample()
        timed = [sampler.reference(t0, t1) for t0, t1 in spans]
        solve_s, ref_solve_s = [w for w, _ in timed], [r for _, r in timed]
    else:
        solve_s, ref_solve_s = [t1 - t0 for t0, t1 in spans], None
    counts = dict(wl.oracles.counts, iters=0)
    failures = []
    for solve, result in zip(wl.solves, results):
        if isinstance(result, Exception):
            failures.append(f"{solve.name}: {type(result).__name__}: {result}")
            continue
        message, iters = solve.check(result)
        counts["iters"] += iters
        if message is not None:
            failures.append(message)
    return PassResult(solve_s, ref_solve_s, counts, failures, trace)


def measure(wl, seconds: float, traced: bool):
    """Warm-up pass, then measured passes until the next one would end
    after ``seconds``. Untraced runs are calibrated; traced runs alternate
    untraced and traced passes and are not."""
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        return _measure(wl, seconds, tracer, None)
    from calibration import Sampler
    with Sampler() as sampler:
        return _measure(wl, seconds, None, sampler)


def _measure(wl, seconds, tracer, sampler):
    warm = run_pass(wl, sampler=sampler)
    passes = []
    start = perf_counter()
    while True:
        use_tracer = tracer is not None and len(passes) % 2 == 1
        if use_tracer:
            tracer.install()
            wl.oracles.tracer = tracer
        try:
            passes.append(run_pass(wl, tracer if use_tracer else None, sampler))
        finally:
            if use_tracer:
                wl.oracles.tracer = None
                tracer.uninstall()
        elapsed = perf_counter() - start
        needed = MIN_PASSES + (1 if tracer is not None else 0)
        if len(passes) >= needed and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    return warm, passes, tracer


def percentile(values, q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def e2e_metrics(passes, setup_times, counts) -> tuple[dict, dict]:
    """End-to-end metrics in reference seconds, and the same timings in
    raw wall seconds for the report."""
    ref = [s for p in passes for s in p.ref_solve_s]
    wall = [s for p in passes for s in p.solve_s]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": (statistics.median(p.ref_pass_s for p in passes), "s"),
        "solve_s.p50": (percentile(ref, 50), "s"),
        "solve_s.p90": (percentile(ref, 90), "s"),
        "setup_s": (statistics.median(r for _, r in setup_times), "s"),
        "iters": (counts["iters"], "count"),
        "f_evals": (counts["f"], "count"),
        "g_evals": (counts["g"], "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = {
        "pass_s": statistics.median(p.pass_s for p in passes),
        "solve_s.p50": percentile(wall, 50),
        "solve_s.p90": percentile(wall, 90),
        "setup_s": statistics.median(w for w, _ in setup_times),
    }
    return metrics, raw


def layer_metrics(passes, build_s) -> dict:
    from counting import KINDS
    from tracing import LAYERS

    untraced = [p.pass_s for p in passes if p.trace is None]
    traced = [p.pass_s for p in passes if p.trace is not None]
    traces = [p.trace for p in passes if p.trace is not None]

    def med(fn):
        return statistics.median(fn(t) for t in traces)

    t0 = traces[0]
    iters = t0.iters
    ls_names = ("exact_search", "armijo_backtrack", "strong_wolfe_search")
    ls_calls = sum(t0.calls[f"line_search.{n}"] for n in ls_names)
    m = {
        "direction.descent_s": (med(lambda t: t.incl["direction.descent_direction"]), "s"),
        "direction.descent_calls": (t0.calls["direction.descent_direction"], "count"),
        "direction.newton_s": (med(lambda t: t.incl["direction.newton_direction"]), "s"),
        "direction.block_s": (med(lambda t: t.incl["direction.block_decompose"]), "s"),
    }
    for case in ("AN", "FlippedAN", "SteepestFallback"):
        m[f"direction.case_{case}"] = (t0.cases[case], "count")
    for kind in KINDS:
        evals = sum(n for (k, _), n in t0.oracle_calls.items() if k == kind)
        m[f"objective.{kind}_evals"] = (evals, "count")
        m[f"objective.{kind}_s"] = (med(lambda t: t.oracle_s[kind]), "s")
        m[f"objective.{kind}_per_iter"] = (evals / iters if iters else 0.0, "count/iter")
    m["objective.fdcheck_s"] = (med(lambda t: t.incl["objective.verify_derivatives"]), "s")
    for short, fn in (("frame", "build_gradient_frame"),
                      ("classify", "classify_symmetric"), ("solve", "solve_spd")):
        m[f"numerics.{short}_s"] = (med(lambda t: t.incl[f"numerics.{fn}"]), "s")
        m[f"numerics.{short}_calls"] = (t0.calls[f"numerics.{fn}"], "count")
    for short, fn in zip(("exact", "armijo", "wolfe"), ls_names):
        m[f"line_search.{short}_s"] = (med(lambda t: t.incl[f"line_search.{fn}"]), "s")
    m["line_search.calls"] = (ls_calls, "count")
    per_call = (lambda n: n / ls_calls) if ls_calls else (lambda n: 0.0)
    m["line_search.phi_per_call"] = (per_call(t0.oracle_calls["f", "line_search"]), "count/call")
    m["line_search.dphi_per_call"] = (per_call(t0.oracle_calls["g", "line_search"]), "count/call")
    m["line_search.accepted_ratio"] = (per_call(t0.accepted), "ratio")
    m["optimizer.iters"] = (iters, "count")
    m["slice_centroid.s"] = (med(lambda t: t.incl["slice_centroid.slice_centroid_direction"]), "s")
    m["slice_centroid.f_evals"] = (t0.oracle_calls["f", "slice_centroid"], "count")
    m["invariance.s"] = (med(lambda t: t.incl["invariance.run_invariance"]), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda t: t.self_s[layer]), "s")
    m["problems.build_s"] = (build_s, "s")
    m["trace.pass_s"] = (med(lambda t: t.pass_s), "s")
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    m["trace.unattributed_share"] = (med(lambda t: t.self_s["bench"] / t.pass_s), "ratio")
    return m


def write_trace(path: Path, env: dict, args, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env, "workload": args.workload,
                             "seed": args.seed}) + "\n")
        for name, start, end, parent, solve, span_id in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "solve": solve}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "affinedescent" / "__init__.py").is_file():
        print(f"error: no affinedescent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT_DIR.mkdir(exist_ok=True)
    setup_times = [] if args.trace else probe_setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        t = perf_counter()
        import workloads
        wl = workloads.build(args.workload, args.seed, ROOT, Path(tmp))
        build_s = perf_counter() - t
        try:
            warm, passes, tracer = measure(wl, args.seconds, bool(args.trace))
        finally:
            wl.close()
    env = environment()
    print("# env " + json.dumps(env))

    all_passes = [warm] + passes
    failures = [f for p in all_passes for f in p.failures]
    mismatched = [p.counts for p in all_passes if p.counts != warm.counts]
    if mismatched:
        failures.append(f"oracle counts differ between passes: {warm.counts} vs {mismatched[0]}")
    golden = workloads.load_golden()["counts"][args.workload]
    if any(warm.counts[k] != v for k, v in golden.items()):
        failures.append(f"oracle counts {warm.counts} differ from golden {golden}")
    attempted = len(wl.solves) * len(all_passes)
    failed_solves = sum(len(p.failures) for p in all_passes)

    raw = {}
    if args.trace:
        metrics = layer_metrics(passes, build_s)
        write_trace(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl", env, args, tracer)
    else:
        metrics, raw = e2e_metrics(passes, setup_times, warm.counts)
    samples = sum(len(p.solve_s) for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"solve samples={samples} (p90 has {samples - -(-samples * 9 // 10)} beyond) "
          f"failed_frac={failed_solves / attempted:g}")
    for name, (value, unit) in metrics.items():
        wall = f"   ({raw[name]:.6g} wall s)" if name in raw else ""
        print(f"{name:34s} {value:>14.6g} {unit}{wall}")
    for message in failures[:20]:
        print(f"# FAIL {message}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed_solves,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
