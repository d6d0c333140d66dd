import numpy as np
import pytest

from affinedescent.direction import affine_normal_direction
from affinedescent.errors import EmptySlice
from affinedescent.numerics import angle_between
from affinedescent.objective import make_objective
from affinedescent import slice_centroid
from affinedescent.problems import CATALOG_NAMES, catalog
from affinedescent.slice_centroid import (slice_centroid_direction,
                                          slice_region_2d)


def isotropic_bowl():
    return make_objective(
        dim=2,
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: x.copy(),
        hessian=lambda x: np.eye(2),
        third_directional=lambda x, u, v, w: 0.0,
    )


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
        obj = make_objective(
            dim=3,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x.copy(),
            hessian=lambda x: np.eye(3),
            third_directional=lambda x, u, v, w: 0.0,
        )
        with pytest.raises(ValueError):
            slice_region_2d(obj, np.array([1.0, 0.0, 0.0]), -1e-3)

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
        v = slice_centroid_direction(obj, np.array([2.0, 0.0]), delta=1e-3)
        assert np.allclose(v, np.array([-1.0, 0.0]), atol=1e-6)

    def test_matches_analytic_on_quadratic_for_every_offset(self):
        p = catalog("quad_51")
        x = np.array([2.0, 0.0])
        d_an = affine_normal_direction(p.objective, x).d
        for delta in (1e-2, 1e-3, 1e-4):
            v = slice_centroid_direction(p.objective, x, delta=delta)
            assert angle_between(v, d_an) <= 1e-8
            # the construction fixes the frame-normal component at -1
            g = p.objective.gradient(x)
            assert float(v @ (g / np.linalg.norm(g))) == \
                pytest.approx(-1.0, abs=1e-12)

    def test_first_order_error_where_cubic_term_is_nonzero(self):
        p = catalog("convex_53")
        x = np.array([1.0, 1.0])
        d_an = affine_normal_direction(p.objective, x).d
        errs = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            v = slice_centroid_direction(p.objective, x, delta=delta)
            errs.append(angle_between(v, d_an))
        for big, small in zip(errs, errs[1:]):
            assert 0.25 <= small / big <= 0.75

    def test_counterexample_is_an_ascent_direction(self):
        p = catalog("counterexample")
        z = np.zeros(2)
        v = slice_centroid_direction(p.objective, z, delta=1e-2)
        assert angle_between(v, np.array([0.0, 1.0])) <= 1e-6
        assert float(p.objective.gradient(z) @ v) > 0.0

    def test_default_params_used_when_omitted(self):
        obj = isotropic_bowl()
        v = slice_centroid_direction(obj, np.array([2.0, 0.0]))
        assert np.allclose(v, np.array([-1.0, 0.0]), atol=1e-5)
