"""In-memory spans around the public functions of each affinedescent module.

The tracer replaces each listed function, in every affinedescent module that
binds it, by a wrapper that records a span: name, start, end, parent span
and solve id. Self time (a span's duration minus the time its child spans
cover) is summed per layer as spans close, so memory stays bounded; the
spans themselves are kept for the first traced pass only and written out
when the benchmark ends. Oracle calls from ``counting.Oracles`` are charged
to the ``objective`` layer and counted by the layer that made them.
"""
from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions wrapped in spans, by module. The layer of a span is the
# part of its name before the dot.
TRACED = {
    "direction": ("descent_direction", "affine_normal_direction",
                  "newton_direction", "block_decompose", "classify_point"),
    "numerics": ("build_gradient_frame", "classify_symmetric", "solve_spd"),
    "line_search": ("exact_search", "armijo_backtrack", "strong_wolfe_search"),
    "optimizer": ("yand_run", "gradient_descent_run", "newton_run"),
    "objective": ("verify_derivatives",),
    "slice_centroid": ("slice_centroid_direction", "slice_region_2d"),
    "invariance": ("run_invariance",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED) + ("bench",)
ROOT = "bench.pass"
_LINE_SEARCHES = {f"line_search.{fn}" for fn in TRACED["line_search"]}
_RUNS = {f"optimizer.{fn}" for fn in TRACED["optimizer"]}


class PassTrace:
    """Per-layer totals of one traced pass."""

    def __init__(self):
        self.incl = defaultdict(float)       # span name -> inclusive seconds
        self.calls = Counter()               # span name -> calls
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.oracle_s = defaultdict(float)   # oracle kind -> seconds
        self.oracle_calls = Counter()        # (oracle kind, caller layer) -> calls
        self.cases = Counter()               # descent_direction case -> count
        self.accepted = 0                    # line searches ending ACCEPTED
        self.iters = 0                       # accepted iterates of all runs
        self.pass_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.record = True
        self.solve = -1
        self.current: PassTrace | None = None
        self._stack: list[list] = []        # [name, start, child seconds, span id]
        self._next_id = 0
        self._originals: list[tuple] = []   # (module, attribute, original)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function wherever an affinedescent module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "affinedescent" or name.startswith("affinedescent.")]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"affinedescent.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        post = self._post_hook(name)

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if post is not None:
                post(result)
            return result

        return traced

    def _post_hook(self, name):
        if name == "direction.descent_direction":
            def count_case(res):
                self.current.cases[res.case.value] += 1
            return count_case
        if name in _LINE_SEARCHES:
            def count_accepted(res):
                self.current.accepted += res.status.value == "Accepted"
            return count_accepted
        if name in _RUNS:
            def count_iters(report):
                self.current.iters += report.iters
            return count_iters
        return None

    # -- spans --------------------------------------------------------
    def begin_pass(self) -> None:
        self.current = PassTrace()
        self._enter(ROOT)

    def end_pass(self) -> PassTrace:
        self._exit()
        self.record = False
        done, self.current = self.current, None
        done.pass_s = done.incl[ROOT]
        return done

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        trace = self.current
        trace.incl[name] += duration
        trace.calls[name] += 1
        trace.self_s[name.partition(".")[0]] += duration - child_s
        parent_id = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent_id = self._stack[-1][3]
        if self.record:
            self.spans.append((name, start, end, parent_id, self.solve, span_id))

    def oracle(self, kind: str, fn, args):
        """Time one oracle call and charge it to the caller's span."""
        start = perf_counter()
        result = fn(*args)
        duration = perf_counter() - start
        caller = self._stack[-1]
        caller[2] += duration
        trace = self.current
        trace.self_s["objective"] += duration
        trace.oracle_s[kind] += duration
        trace.oracle_calls[kind, caller[0].partition(".")[0]] += 1
        return result
