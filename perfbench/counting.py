"""Counting wrapper around an objective's oracles.

Every call to value (f), gradient (g), Hessian (h) and the scalar third
derivative (t3) goes through ``Oracles``, which counts it and, while a
tracer is attached, also times it and charges it to the enclosing span.
"""
from __future__ import annotations

from dataclasses import replace

from affinedescent import Objective, Problem

KINDS = ("f", "g", "h", "t3")
_FIELDS = {"f": "value", "g": "gradient", "h": "hessian",
           "t3": "third_directional"}


class Oracles:
    """Call counts for every objective wrapped by this instance."""

    def __init__(self):
        self.counts = dict.fromkeys(KINDS, 0)
        self.tracer = None

    def reset(self) -> None:
        self.counts = dict.fromkeys(KINDS, 0)

    def wrap(self, obj: Objective) -> Objective:
        return replace(obj, **{field: self._counted(kind, getattr(obj, field))
                               for kind, field in _FIELDS.items()})

    def wrap_problem(self, problem: Problem) -> Problem:
        return replace(problem, objective=self.wrap(problem.objective))

    def _counted(self, kind, fn):
        def call(*args):
            self.counts[kind] += 1
            if self.tracer is None:
                return fn(*args)
            return self.tracer.oracle(kind, fn, args)
        return call
