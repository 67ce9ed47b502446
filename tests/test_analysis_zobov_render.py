"""Tests for the slice renderer."""

import numpy as np
import pytest

from repro.diy.bounds import Bounds
from repro.core import tessellate
from repro.analysis import connected_components
from repro.analysis.render import ascii_render, slice_field, write_pgm


def two_void_points(seed=0, size=12.0):
    """A Poisson field with two fully emptied pockets at (3,3,3), (9,9,9)."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, size, size=(1400, 3))
    keep = np.ones(len(pts), dtype=bool)
    for c in (np.array([3.0, 3, 3]), np.array([9.0, 9, 9])):
        keep &= np.linalg.norm(pts - c, axis=1) > 2.2
    return pts[keep]


class TestRender:
    def _tess(self, seed=0):
        pts = two_void_points(seed)
        return tessellate(pts, Bounds.cube(12.0), nblocks=2, ghost=4.0)

    def test_slice_shapes_and_values(self):
        tess = self._tess(1)
        img = slice_field(tess, axis=2, resolution=32, value="volume")
        assert img.shape == (32, 32)
        assert np.all(img > 0)
        dens = slice_field(tess, axis=2, resolution=32, value="density")
        np.testing.assert_allclose(dens, 1.0 / img)

    def test_void_pixels_have_large_volume(self):
        tess = self._tess(2)
        img = slice_field(tess, axis=2, coordinate=3.0, resolution=48)
        lo, hi = tess.domain.as_arrays()
        # Pixel nearest (3, 3) in the slice plane.
        res = 48
        iu = int((3.0 - lo[0]) / (hi[0] - lo[0]) * res)
        iv = int((3.0 - lo[1]) / (hi[1] - lo[1]) * res)
        assert img[iu, iv] > np.median(img)

    def test_component_rendering(self):
        tess = self._tess(3)
        vmin = float(np.quantile(tess.volumes(), 0.7))
        lab = connected_components(tess, vmin=vmin)
        img = slice_field(
            tess, axis=0, resolution=24, value="component", labeling=lab
        )
        assert img.min() == -1  # unlabeled background present
        assert img.max() >= 0  # some labeled void pixels

    def test_component_requires_labeling(self):
        with pytest.raises(ValueError):
            slice_field(self._tess(4), value="component")

    def test_bad_args(self):
        t = self._tess(5)
        with pytest.raises(ValueError):
            slice_field(t, axis=3)
        with pytest.raises(ValueError):
            slice_field(t, value="nope")

    def test_ascii_render(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        art = ascii_render(img, log_scale=False)
        lines = art.split("\n")
        assert len(lines) == 4 and all(len(l) == 4 for l in lines)
        assert art[0] == " " and lines[-1][-1] == "@"

    def test_ascii_flat_field(self):
        art = ascii_render(np.ones((3, 3)))
        assert set(art.replace("\n", "")) == {" "}

    def test_pgm_output(self, tmp_path):
        img = np.random.default_rng(0).uniform(1, 10, size=(16, 16))
        path = tmp_path / "slice.pgm"
        write_pgm(str(path), img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n16 16\n255\n")
        assert len(data) == len(b"P5\n16 16\n255\n") + 256

    def test_render_rejects_3d(self):
        with pytest.raises(ValueError):
            ascii_render(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            write_pgm("/tmp/x.pgm", np.zeros((2, 2, 2)))
