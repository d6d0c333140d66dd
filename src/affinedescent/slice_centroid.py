"""Geometric direction estimate from sublevel-set slices (2-d objectives).

The sublevel set is cut with a line parallel to the level set's tangent
at z, offset below it by delta along the unit gradient. The centroid of
the cut, relative to z, estimates the analytic direction to O(delta)
where the level set is locally strictly convex.
"""
from __future__ import annotations

from math import isfinite
from typing import NamedTuple

import numpy as np

from .direction import classify_point
from .errors import EmptySlice
from .numerics import (Frame, Vector, as_vector, build_gradient_frame,
                       positive_finite)
from .objective import Objective


GRID_POINTS = 2049   # odd, so that t = 0 lies on the scan grid
BISECT_TOL = 1e-12   # width to which each feasibility crossing is refined


class SliceRegion(NamedTuple):
    """Sublevel slice as intervals in the tangent parameter t, plus its
    centroid in both parameter and ambient coordinates."""

    intervals: list[tuple[float, float]]
    total_length: float
    centroid_param: float
    centroid: Vector
    frame: Frame


def _auto_window(obj: Objective, z: Vector, offset: float,
                 frame: Frame) -> float:
    """Scan half-width from the tangent curvature at z: covers ~10x the
    chord half-width sqrt(2|C| / lambda), with the curvature floored at
    |C| so non-elliptic points get a wide but finite window."""
    lam = max(classify_point(obj, z, frame=frame).min_eig, offset)
    return max(1.0, 10.0 * float(np.sqrt(2.0 * offset / lam)))


def _bisect_edge(feasible, lo: float, hi: float, lo_feasible: bool) -> float:
    """Refine a feasibility crossing in (lo, hi) to width BISECT_TOL.
    lo_feasible says which endpoint is inside the region."""
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid) == lo_feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def slice_region_2d(obj: Objective, z, C: float) -> SliceRegion:
    """Intersect {f <= f(z)} with the line z + (C/||grad||) n_hat + t t_hat,
    t in [-R, R], for a 2-d objective; _auto_window sizes R.

    Returns the feasible t-intervals (grid scan refined by bisection; runs
    touching the window edge are clipped at +-R) and their centroid.
    Raises EmptySlice when no grid point is feasible and ValueError when C
    is zero or not finite.
    """
    if obj.dim != 2:
        raise ValueError("slice scan is implemented for 2-d objectives")
    z = as_vector(z, obj.dim)
    if C == 0.0 or not isfinite(C):
        raise ValueError("C must be finite and nonzero")
    f0 = obj.value(z)
    frame = build_gradient_frame(obj.gradient(z))
    offset = abs(C)
    R = _auto_window(obj, z, offset, frame)
    foot = z + (C / frame.grad_norm) * frame.normal
    t_hat = frame.tangent[:, 0]

    def feasible(t: float) -> bool:
        return obj.value(foot + t * t_hat) <= f0

    n = GRID_POINTS
    grid = np.linspace(-R, R, n)
    points = foot + grid[:, None] * t_hat
    flags = np.fromiter(map(obj.value, points), float, n) <= f0
    if not flags.any():
        raise EmptySlice(f"no feasible point in [-{R:g}, {R:g}] at C={C:g}")

    intervals: list[tuple[float, float]] = []
    # the runs of feasible flags, each from its first index i to its last j
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    for i, j in zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()):
        lo = grid[i] if i == 0 else _bisect_edge(
            feasible, grid[i - 1], grid[i], False)
        hi = grid[j] if j == n - 1 else _bisect_edge(
            feasible, grid[j], grid[j + 1], True)
        intervals.append((float(lo), float(hi)))

    # R >= 1, so a refined edge lies >= 2.5e-13 beyond its run: total > 0
    total = sum(b - a for a, b in intervals)
    centroid_param = sum(0.5 * (b * b - a * a) for a, b in intervals) / total
    centroid = foot + centroid_param * t_hat
    return SliceRegion(intervals=intervals, total_length=float(total),
                       centroid_param=float(centroid_param),
                       centroid=centroid, frame=frame)


def slice_centroid_direction(obj: Objective, z, delta: float = 1e-4) -> Vector:
    """Direction estimate from the centroid of the slice at C = -delta,
    for a delta of at least 1e-9, so that the bisection's BISECT_TOL
    resolves the slice.

    At elliptic points the centroid displacement from z, scaled by
    ||grad||/delta, has frame-normal component exactly -1 and tangential
    part tau + O(delta); it is returned as the descent estimate. Where
    the tangent block is not positive definite the construction's premise
    fails and the raw outward difference (z - centroid) * ||grad||/delta
    is returned unchanged, so misbehavior (e.g. an ascent direction) stays
    observable.
    """
    positive_finite("delta", delta)
    if delta * 1e-3 < BISECT_TOL:
        raise ValueError("delta must be at least BISECT_TOL * 1e3 = 1e-9")
    z = as_vector(z, obj.dim)
    region = slice_region_2d(obj, z, -delta)
    gnorm = region.frame.grad_norm
    v = (region.centroid - z) * (gnorm / delta)
    if classify_point(obj, z, frame=region.frame).is_positive_definite:
        return v
    return -v
