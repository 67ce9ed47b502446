"""Production against the clip reference, one decomposition at a time.

``tessellate`` must return the cells of :func:`clip_reference` — same
site ids, volumes within :data:`CLIP_VOL_RTOL` — whatever the block
count and the rank count.
"""

import functools

import numpy as np
import pytest

from repro.core import Tessellation, VoronoiBlock, match_tessellations, tessellate
from repro.diy.bounds import Bounds

from .clip_reference import CLIP_VOL_RTOL, clip_reference, tessellate_block


def poisson_case():
    box = 10.0
    pts = np.random.default_rng(7).uniform(0.0, box, size=(400, 3))
    return pts, Bounds.cube(box), 4.0 * box / len(pts) ** (1.0 / 3.0)


def lattice_case():
    """A cubic lattice whose interior sites are perturbed (the phd-code
    fixture of SNIPPETS.md in 3D): exact cosphericity outside, a generic
    patch inside, and the seam between them.  Seven sites per side, so no
    regular split is even."""
    n = 7
    g = np.arange(n) + 0.5
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    inner = np.all((pts > 0.25 * n) & (pts < 0.75 * n), axis=1)
    pts[inner] += 0.2 * np.random.default_rng(5).uniform(-1, 1, (inner.sum(), 3))
    return pts, Bounds.cube(float(n)), 2.5


@functools.cache
def reference(case_fn):
    return clip_reference(*case_fn())


@pytest.fixture(params=(poisson_case, lattice_case))
def case(request):
    return (*request.param(), reference(request.param))


def assert_all_cells_match(tess, reference):
    m = match_tessellations(tess, reference, vol_rtol=CLIP_VOL_RTOL)
    assert m.cells_matching == m.cells_parallel == m.cells_reference > 0


# ``<nblocks>-False`` ids: the regular (unbalanced) layout, named as these
# cases always have been so their ids stay stable.
@pytest.mark.parametrize("nblocks", (1, 2, 4, 8), ids="{}-False".format)
def test_matches_reference(case, nblocks):
    pts, domain, ghost, reference = case
    assert_all_cells_match(
        tessellate(pts, domain, nblocks=nblocks, ghost=ghost), reference
    )


# Several blocks per rank process (one block per rank is
# ``test_matches_reference``); the second id predates the single backend.
@pytest.mark.parametrize(
    "kw",
    [dict(nblocks=8, nranks=3), dict(nblocks=4, nranks=2)],
    ids=("fewer-ranks", "process-fewer-ranks"),
)
def test_matches_reference_across_rank_layouts(case, kw):
    pts, domain, ghost, reference = case
    assert_all_cells_match(tessellate(pts, domain, ghost=ghost, **kw), reference)


def test_faces_match_reference():
    """Beyond volumes: per-cell surface area and neighbor id set."""
    pts, domain, ghost = poisson_case()
    want = {c.site_id: c for c in reference(poisson_case).cells()}
    cells = list(tessellate(pts, domain, nblocks=4, ghost=ghost).cells())
    assert len(cells) == len(want) == len(pts)
    for cell in cells:
        ref = want[cell.site_id]
        assert cell.area == pytest.approx(ref.area, rel=CLIP_VOL_RTOL)
        assert set(cell.neighbor_ids.tolist()) == set(ref.neighbor_ids.tolist())


def test_volume_thresholds_match_reference():
    pts, domain, ghost = poisson_case()
    vmin = 0.5 * domain.volume / len(pts)
    kept = [c for c in reference(poisson_case).cells() if c.volume >= vmin]
    assert 0 < len(kept) < len(pts)
    culled = Tessellation(
        domain=domain, blocks=[VoronoiBlock.from_cells(0, domain, kept)]
    )
    assert_all_cells_match(
        tessellate(pts, domain, nblocks=2, ghost=ghost, vmin=vmin), culled
    )


def test_reference_culls_like_a_filter():
    # tessellate_block's own vmin/vmax agree with filtering its output
    pts = np.random.default_rng(9).uniform(0.0, 5.0, size=(120, 3))
    args = (pts, np.arange(len(pts)), np.empty((0, 3)), np.empty(0, dtype=np.int64))
    everything = tessellate_block(*args, container=Bounds.cube(5.0))
    vols = sorted(c.volume for c in everything)
    vmin, vmax = vols[len(vols) // 4], vols[3 * len(vols) // 4]
    culled = tessellate_block(*args, container=Bounds.cube(5.0), vmin=vmin, vmax=vmax)
    assert [c.site_id for c in culled] == [
        c.site_id for c in everything if vmin <= c.volume <= vmax
    ]
    assert 0 < len(culled) < len(everything)
