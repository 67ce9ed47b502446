"""Paper §III-C2 — Data-model statistics and output sizes.

Paper numbers for evolved HACC snapshots: ~15 faces per cell, ~5 vertices
per face, ~35 vertex references per cell, each vertex shared by ~5 cells;
a full tessellation costs ~450 bytes/particle and a volume-culled one
~100 bytes/particle (vs 40 B/particle for a raw HACC checkpoint); ~7% of
the bytes are floating-point geometry and ~93% mesh connectivity.

Bytes/particle are tess file bytes.  The file keeps float64 geometry (the
paper used 32-bit floats) but stores the connectivity losslessly in the
narrowest integer dtypes its values need (DESIGN.md §7.1), which puts full
output below the paper's ~450 B/particle.  The geometry fraction is of the
in-memory arrays (float64 geometry, int32/int64 connectivity), so it runs
higher than the paper's ~7%; the structural ratios — faces/cell,
vertices/face, culled-vs-full reduction — are the reproduced quantities.
"""

import numpy as np

from repro.core import tessellate
from repro.analysis import volume_range_concentration
from repro.hacc.checkpoint import BYTES_PER_PARTICLE
from conftest import write_report


def test_datamodel_statistics(benchmark, evolved_snapshot_32, tmp_path):
    cfg, tessellations = evolved_snapshot_32
    tess = tessellations[100]
    vols = tess.volumes()
    vmin_10pct = float(vols.min() + 0.1 * (vols.max() - vols.min()))

    def compute():
        full_bytes = tess.write(str(tmp_path / "full.tess"))
        # Re-tessellate with the 10%-of-range cull (the paper's usual mode).
        pts = np.concatenate([b.sites for b in tess.blocks])
        ids = np.concatenate([b.site_ids for b in tess.blocks])
        culled = tessellate(
            pts,
            cfg.domain(),
            nblocks=4,
            ghost=4.0,
            ids=ids,
            periodic=False,
            vmin=vmin_10pct,
        )
        culled_bytes = culled.write(str(tmp_path / "culled.tess"))
        return full_bytes, culled, culled_bytes

    full_bytes, culled, culled_bytes = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )

    n_particles = cfg.num_particles
    faces_per_cell = np.mean([b.faces_per_cell() for b in tess.blocks])
    verts_per_face = np.mean([b.vertices_per_face() for b in tess.blocks])
    sharing = np.mean([b.vertex_sharing() for b in tess.blocks])
    refs_per_cell = faces_per_cell * verts_per_face
    geom_frac = np.mean(
        [b.size_report().geometry_fraction for b in tess.blocks]
    )

    lines = [
        "DATA MODEL — PAPER §III-C2 STATISTICS (32^3 evolved snapshot)",
        "",
        f"{'quantity':<38} {'here':>10} {'paper':>8}",
        f"{'faces per cell':<38} {faces_per_cell:>10.2f} {'~15':>8}",
        f"{'vertices per face':<38} {verts_per_face:>10.2f} {'~5':>8}",
        f"{'vertex refs per cell':<38} {refs_per_cell:>10.1f} {'~75':>8}",
        f"{'faces sharing each pooled vertex':<38} {sharing:>10.2f} {'':>8}",
        f"{'geometry fraction of bytes':<38} {geom_frac:>10.1%} {'~7%':>8}",
        f"{'full output B/particle':<38} {full_bytes / n_particles:>10.0f} {'~450':>8}",
        f"{'culled output B/particle':<38} {culled_bytes / n_particles:>10.0f} {'~100':>8}",
        f"{'culled cells kept':<38} {culled.num_cells / n_particles:>10.1%} {'':>8}",
        f"{'HACC checkpoint B/particle':<38} {BYTES_PER_PARTICLE:>10d} {'40':>8}",
        "",
        "(B/particle: tess file bytes, float64 geometry + narrow-integer",
        " connectivity; geometry fraction: in-memory arrays, float64 here",
        " vs the paper's float32)",
    ]
    write_report("datamodel_sizes", lines)

    assert 13.0 < faces_per_cell < 18.0
    assert 4.0 < verts_per_face < 6.5
    assert geom_frac < 0.5  # connectivity dominates, as in the paper
    assert culled_bytes < 0.5 * full_bytes  # culling slashes output size
    # Most cells are in the smallest tenth of the range, so the cull is big.
    assert volume_range_concentration(vols, 0.1) > 0.5
