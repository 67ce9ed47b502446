"""Tests for Minkowski functionals, void finding, and statistics."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.core import tessellate
from repro.analysis.components import ComponentLabeling, connected_components
from repro.analysis.minkowski import minkowski_functionals
from repro.analysis.statistics import (
    cell_density,
    density_contrast,
    histogram,
    volume_range_concentration,
)
from repro.analysis.voids import find_voids, volume_threshold_for_fraction

from .cell_reference import neighbors_of_cell


def uniform_tess(n=400, size=10.0, seed=0, nblocks=1):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, size, size=(n, 3))
    return tessellate(pts, Bounds.cube(size), nblocks=nblocks, ghost=4.0)


class TestMinkowskiSingleCell:
    def _single_cell_functionals(self, tess):
        # Pick one interior cell as its own component.
        sid = int(tess.site_ids()[0])
        lab = ComponentLabeling(
            site_ids=np.asarray([sid]), labels=np.asarray([0])
        )
        return minkowski_functionals(tess, lab)[0], sid

    def test_convex_cell_basics(self):
        tess = uniform_tess(seed=1)
        mk, sid = self._single_cell_functionals(tess)
        i = int(np.flatnonzero(tess.site_ids() == sid)[0])
        assert mk.num_cells == 1
        assert mk.volume == pytest.approx(float(tess.volumes()[i]), rel=1e-9)
        assert mk.surface_area == pytest.approx(float(tess.areas()[i]), rel=1e-9)
        # A single convex polyhedron: sphere-topology boundary, positive
        # curvature, chi = 2, genus 0.
        assert mk.euler_characteristic == 2
        assert mk.genus == 0
        assert mk.mean_curvature > 0

    def test_shapefinders_of_convex_cell(self):
        tess = uniform_tess(seed=2)
        mk, _ = self._single_cell_functionals(tess)
        # For convex bodies T <= B <= L (Sahni et al. ordering).
        assert mk.thickness <= mk.breadth * (1 + 1e-9)
        assert mk.breadth <= mk.length * (1 + 1e-9)
        # And all are of order the cell size.
        r_est = (3 * mk.volume / (4 * np.pi)) ** (1 / 3)
        assert 0.3 * r_est < mk.thickness < 3 * r_est

    def test_cube_analytics(self):
        """A hand-built single-cube 'tessellation' has exact functionals."""
        from repro.core.tessellate import Tessellation
        from .cell_reference import VoronoiCell, from_cells
        from .clip_polyhedron import ConvexPolyhedron

        box = Bounds.cube(2.0)
        poly = ConvexPolyhedron.from_bounds(box)
        cell = VoronoiCell(
            site_id=0,
            site=np.array([1.0, 1.0, 1.0]),
            vertices=poly.vertices,
            faces=poly.faces,
            neighbor_ids=np.full(6, -1, dtype=np.int64),
            volume=8.0,
            area=24.0,
        )
        block = from_cells(0, box, [cell])
        tess = Tessellation(domain=box, blocks=[block])
        lab = ComponentLabeling(site_ids=np.array([0]), labels=np.array([0]))
        mk = minkowski_functionals(tess, lab)[0]
        assert mk.volume == pytest.approx(8.0)
        assert mk.surface_area == pytest.approx(24.0)
        # Cube of side a: C = (1/2) * 12 edges * a * (pi/2) = 3 pi a.
        assert mk.mean_curvature == pytest.approx(3 * np.pi * 2.0, rel=1e-9)
        assert mk.euler_characteristic == 2
        assert mk.thickness == pytest.approx(1.0)  # 3V/S = a/2... 3*8/24=1
        assert mk.breadth == pytest.approx(24.0 / (6 * np.pi))
        assert mk.length == pytest.approx(6 * np.pi / (4 * np.pi))

    def test_pair_of_adjacent_cells_merges_surface(self):
        tess = uniform_tess(seed=3)
        # Find two adjacent cells.
        block = tess.blocks[0]
        sid_a = int(block.site_ids[0])
        nbs = [n for n in neighbors_of_cell(block, 0) if n >= 0]
        sid_b = int(nbs[0])
        lab = ComponentLabeling(
            site_ids=np.asarray(sorted([sid_a, sid_b])), labels=np.asarray([0, 0])
        )
        mk = minkowski_functionals(tess, lab)[0]
        ids = tess.site_ids().tolist()
        va = tess.volumes()[ids.index(sid_a)]
        vb = tess.volumes()[ids.index(sid_b)]
        sa = tess.areas()[ids.index(sid_a)]
        sb = tess.areas()[ids.index(sid_b)]
        assert mk.volume == pytest.approx(va + vb, rel=1e-9)
        # The shared face is interior: S < Sa + Sb.
        assert mk.surface_area < sa + sb - 1e-12
        assert mk.euler_characteristic == 2  # still a topological ball


class TestMinkowskiComponents:
    def test_functionals_for_all_components(self):
        tess = uniform_tess(n=300, seed=4)
        vmin = float(np.quantile(tess.volumes(), 0.55))
        lab = connected_components(tess, vmin=vmin)
        mks = minkowski_functionals(tess, lab)
        assert len(mks) == lab.num_components
        sizes = lab.sizes()
        for mk in mks:
            assert mk.num_cells == sizes[mk.label]
            assert mk.volume > 0
            assert mk.surface_area > 0

    def test_component_volume_additivity(self):
        tess = uniform_tess(n=300, seed=5)
        vmin = float(np.quantile(tess.volumes(), 0.5))
        lab = connected_components(tess, vmin=vmin)
        mks = minkowski_functionals(tess, lab)
        kept = tess.volumes()[tess.volumes() >= vmin]
        assert sum(m.volume for m in mks) == pytest.approx(kept.sum(), rel=1e-9)


class TestVoids:
    def test_default_threshold_rule(self):
        tess = uniform_tess(n=400, seed=6)
        vmin = volume_threshold_for_fraction(tess, 0.1)
        v = tess.volumes()
        assert vmin == pytest.approx(v.min() + 0.1 * (v.max() - v.min()))

    def test_find_voids_returns_sorted(self):
        tess = uniform_tess(n=400, seed=7)
        cat = find_voids(tess, vmin=float(np.quantile(tess.volumes(), 0.6)))
        vols = [v.volume for v in cat.voids]
        assert vols == sorted(vols, reverse=True)
        assert cat.largest().volume == vols[0]
        assert cat.total_volume() == pytest.approx(sum(vols))

    def test_min_cells_filter(self):
        tess = uniform_tess(n=400, seed=8)
        vmin = float(np.quantile(tess.volumes(), 0.8))
        all_cat = find_voids(tess, vmin=vmin, min_cells=1)
        big_cat = find_voids(tess, vmin=vmin, min_cells=3)
        assert big_cat.num_voids <= all_cat.num_voids
        assert all(v.num_cells >= 3 for v in big_cat.voids)

    def test_minkowski_attached(self):
        tess = uniform_tess(n=300, seed=9)
        cat = find_voids(
            tess, vmin=float(np.quantile(tess.volumes(), 0.7)),
            compute_minkowski=True,
        )
        for v in cat.voids:
            assert v.minkowski is not None
            assert v.minkowski.volume == pytest.approx(v.volume, rel=1e-9)

    def test_raising_threshold_reduces_void_material(self):
        """Figure 9 dynamics: higher thresholds keep fewer cells."""
        tess = uniform_tess(n=500, seed=10)
        v = tess.volumes()
        kept_cells = []
        for q in (0.0, 0.5, 0.75, 0.9):
            vmin = float(np.quantile(v, q))
            cat = find_voids(tess, vmin=vmin)
            kept_cells.append(sum(void.num_cells for void in cat.voids))
        assert kept_cells == sorted(kept_cells, reverse=True)

    def test_empty_catalog(self):
        tess = uniform_tess(n=100, seed=11)
        cat = find_voids(tess, vmin=1e9)
        assert cat.num_voids == 0
        with pytest.raises(ValueError):
            cat.largest()


class TestStatistics:
    def test_histogram_moments_gaussian(self):
        rng = np.random.default_rng(0)
        h = histogram(rng.normal(size=200_000), bins=50)
        assert h.skewness == pytest.approx(0.0, abs=0.05)
        assert h.kurtosis == pytest.approx(3.0, abs=0.1)  # Pearson convention
        assert h.counts.sum() + h.n_clipped == h.n_samples

    def test_histogram_range_clipping(self):
        vals = np.array([0.5, 1.0, 1.5, 10.0])
        h = histogram(vals, bins=3, value_range=(0.0, 2.0))
        assert h.counts.sum() == 3
        assert h.n_clipped == 1

    def test_histogram_rows(self):
        h = histogram(np.linspace(0, 1, 100), bins=4, value_range=(0.0, 1.0))
        rows = h.rows()
        assert len(rows) == 4
        assert sum(c for _, c in rows) == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram(np.empty(0))

    def test_cell_density_and_contrast(self):
        v = np.array([1.0, 2.0, 4.0])
        d = cell_density(v)
        np.testing.assert_allclose(d, [1.0, 0.5, 0.25])
        delta = density_contrast(v)
        assert delta.mean() == pytest.approx(0.0, abs=1e-12)
        assert delta[0] > 0 > delta[2]  # smallest cell is densest

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(ValueError):
            cell_density(np.array([1.0, 0.0]))

    def test_volume_range_concentration(self):
        # 90 small values + 10 large: 90% within the smallest 10% of range.
        v = np.concatenate([np.full(90, 1.0), np.full(10, 100.0)])
        assert volume_range_concentration(v, 0.1) == pytest.approx(0.9)

    def test_skewed_distribution_positive_skew(self):
        rng = np.random.default_rng(1)
        h = histogram(rng.lognormal(0, 1.0, size=50_000))
        assert h.skewness > 2.0
        assert h.kurtosis > 10.0
