from dataclasses import replace

import numpy as np
import pytest
from helpers import quadratic

from affinedescent.errors import AffineDescentError, EmptySlice
from affinedescent import slice_centroid
from affinedescent.problems import CATALOG_NAMES, catalog
from affinedescent.slice_centroid import (BISECT_TOL,
                                          slice_centroid_direction,
                                          slice_region_2d)


def isotropic_bowl():
    return quadratic(np.eye(2))


def banded(value, z, k):
    """value, but NaN and +inf in alternate parallel bands of the plane,
    about 2 pi / (1.2 k) apart."""
    def holed(x):
        s = np.sin(k * (x[0] - z[0]) + 0.7 * k * (x[1] - z[1]))
        return np.nan if s > 0.8 else np.inf if s < -0.8 else value(x)
    return holed


class TestSliceRegion:
    def test_circle_chord_geometry(self):
        # bowl at (2,0), C=-delta: chord half-width sqrt(2 delta - delta^2/4)
        obj = isotropic_bowl()
        z = np.array([2.0, 0.0])
        delta = 1e-3
        region = slice_region_2d(obj, z, -delta)
        assert len(region.intervals) == 1
        a, b = region.intervals[0]
        w = np.sqrt(2.0 * delta - delta * delta / 4.0)
        assert a == pytest.approx(-w, abs=1e-9)
        assert b == pytest.approx(w, abs=1e-9)
        assert region.total_length == pytest.approx(2.0 * w, abs=2e-9)
        assert region.centroid_param == pytest.approx(0.0, abs=1e-9)

    def test_counterexample_single_interval_below(self):
        # (x^2-1)^2 <= 1+delta has one component: |x| <= sqrt(1+sqrt(1+delta))
        obj = catalog("counterexample").objective
        delta = 1e-2
        region = slice_region_2d(obj, np.zeros(2), -delta)
        assert len(region.intervals) == 1
        a, b = region.intervals[0]
        edge = np.sqrt(1.0 + np.sqrt(1.0 + delta))
        assert -a == pytest.approx(edge, abs=1e-9)
        assert b == pytest.approx(edge, abs=1e-9)
        assert region.centroid_param == pytest.approx(0.0, abs=1e-9)

    def test_counterexample_two_intervals_above(self):
        # (x^2-1)^2 <= 1-C splits into two symmetric components for C>0
        obj = catalog("counterexample").objective
        C = 1e-2
        region = slice_region_2d(obj, np.zeros(2), C)
        assert len(region.intervals) == 2
        inner = np.sqrt(1.0 - np.sqrt(1.0 - C))
        outer = np.sqrt(1.0 + np.sqrt(1.0 - C))
        (a1, b1), (a2, b2) = region.intervals
        assert a1 == pytest.approx(-outer, abs=1e-9)
        assert b1 == pytest.approx(-inner, abs=1e-9)
        assert a2 == pytest.approx(inner, abs=1e-9)
        assert b2 == pytest.approx(outer, abs=1e-9)
        assert b1 < a2   # ordered and disjoint
        assert region.centroid_param == pytest.approx(0.0, abs=1e-9)

    def test_two_interval_centroid_is_length_weighted(self):
        """Kills the mutant that takes the midpoint of the intervals' hull
        for the centroid. On four_well at (-0.982, -0.225) with C = -0.1
        the slice has two intervals of lengths 0.377 and 0.083; their
        centroid sum(b^2 - a^2) / 2 / sum(b - a) lies 0.43 from the hull
        midpoint."""
        region = slice_region_2d(catalog("four_well").objective,
                                 [-0.982, -0.225], -0.1)
        (a1, b1), (a2, b2) = region.intervals
        assert (a1, b1) == pytest.approx((-0.1429, 0.2344), abs=1e-4)
        assert (a2, b2) == pytest.approx((1.5736, 1.6570), abs=1e-4)
        weighted = (0.5 * (b1 * b1 - a1 * a1 + b2 * b2 - a2 * a2)
                    / (b1 - a1 + b2 - a2))
        assert region.centroid_param == pytest.approx(weighted, rel=1e-12)
        assert region.centroid_param == pytest.approx(0.3298, abs=1e-4)
        assert abs(region.centroid_param - 0.5 * (a1 + b2)) > 0.4

    def test_every_interval_has_positive_width(self):
        """R >= 1 spaces the scan grid at least 9.8e-4 apart, so a bisected
        edge lies at least 2.5e-13 beyond the grid points of its run, and
        an unbisected one is -R or R: every interval has b > a, and the
        centroid's division by the total length is safe."""
        rng = np.random.default_rng(4)
        cases = [(catalog("counterexample").objective, np.zeros(2), 1e-2)]
        for name in CATALOG_NAMES:
            p = catalog(name)
            if p.objective.dim != 2:
                continue
            points = [p.x0] + list(p.x0 + rng.uniform(-0.5, 0.5, (2, 2)))
            cases += [(p.objective, z, sign * offset)
                      for z in points if p.objective.in_domain(z)
                      for offset in (1e-9, 1e-5, 1e-1) for sign in (-1, 1)]
        regions = []
        for obj, z, C in cases:
            try:
                regions.append(slice_region_2d(obj, z, C))
            except EmptySlice:   # above a convex level set, say
                pass
        assert len(regions[0].intervals) == 2
        assert len(regions) > len(cases) // 2
        for region in regions:
            assert all(b > a for a, b in region.intervals)
            assert region.total_length > 0.0

    def test_edges_lie_within_bisect_tol_of_a_feasibility_change(self):
        """Each edge short of the window's ends lies within BISECT_TOL of a
        feasible and an infeasible point that the scan evaluated, on the
        2-D catalog near each start, and where the value is NaN or +inf in
        bands across the line (both compare infeasible)."""
        rng = np.random.default_rng(8)
        edges = 0
        for name in CATALOG_NAMES:
            p = catalog(name)
            if p.objective.dim != 2:
                continue
            for holes in (None, 20.0):
                z = p.x0 + 0.05 * rng.uniform(-1.0, 1.0, 2)
                value = p.objective.value if holes is None else \
                    banded(p.objective.value, z, holes)
                seen = []

                def logged(x, value=value):
                    seen.append((np.array(x), value(x)))
                    return seen[-1][1]

                obj = replace(p.objective, value=logged)
                for C in (-1e-3, 1e-2):
                    seen.clear()
                    try:
                        region = slice_region_2d(obj, z, C)
                    except AffineDescentError:   # e.g. an empty slice
                        continue
                    frame = region.frame
                    R = slice_centroid._auto_window(p.objective, z, abs(C),
                                                   frame)
                    foot = z + (C / frame.grad_norm) * frame.normal
                    (_, f0), *scan = seen
                    points, values = zip(*scan)
                    t = (np.array(points) - foot) @ frame.tangent[:, 0]
                    inside = np.array(values) <= f0
                    for edge in np.ravel(region.intervals):
                        if abs(edge) != R:
                            near = inside[np.abs(t - edge) <= BISECT_TOL]
                            assert near.any() and not near.all(), (name, C)
                            edges += 1
        assert edges > 200

    def test_empty_slice_raises(self):
        obj = isotropic_bowl()
        with pytest.raises(EmptySlice):
            slice_region_2d(obj, np.array([2.0, 0.0]), +1e-3)

    def test_window_clips_runs_at_edges(self, monkeypatch):
        monkeypatch.setattr(slice_centroid, "_auto_window",
                            lambda obj, z, offset, frame: 1.0)
        obj = catalog("counterexample").objective
        region = slice_region_2d(obj, np.zeros(2), -1e-2)
        assert len(region.intervals) == 1
        a, b = region.intervals[0]
        assert a == -1.0 and b == 1.0

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            slice_region_2d(quadratic(np.eye(3)), np.array([1.0, 0.0, 0.0]),
                            -1e-3)

    def test_rejects_zero_offset(self):
        with pytest.raises(ValueError, match="^C must be finite and nonzero$"):
            slice_region_2d(isotropic_bowl(), np.array([2.0, 0.0]), 0.0)

    @pytest.mark.parametrize("C", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_offset(self, C):
        with pytest.raises(ValueError, match="^C must be finite and nonzero$"):
            slice_region_2d(isotropic_bowl(), np.array([2.0, 0.0]), C)


class TestSliceParams:
    """The slice setting: slice_centroid_direction's delta."""

    def test_validation(self):
        z = np.array([2.0, 0.0])
        with pytest.raises(ValueError):
            slice_centroid_direction(isotropic_bowl(), z, delta=0.0)
        # bisection resolves crossings to BISECT_TOL, so delta >= 1e-9
        with pytest.raises(ValueError, match="^delta must be at least"):
            slice_centroid_direction(isotropic_bowl(), z, delta=0.5e-9)
        slice_centroid_direction(isotropic_bowl(), z, delta=1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_window_must_be_finite(self, value):
        # delta is checked before its 1e-9 floor, which an infinite delta
        # passes
        with pytest.raises(ValueError,
                           match="^delta must be finite and positive$"):
            slice_centroid_direction(isotropic_bowl(), np.array([2.0, 0.0]),
                                     delta=value)


class TestSliceDirection:
    def test_bowl_gives_inward_radial_direction(self):
        obj = isotropic_bowl()
        for delta, atol in ((1e-3, 1e-6), (1e-4, 1e-5)):
            v = slice_centroid_direction(obj, np.array([2.0, 0.0]), delta)
            assert np.allclose(v, np.array([-1.0, 0.0]), atol=atol)
