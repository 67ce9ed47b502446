"""The dict-based Minkowski kernel, kept as the parity reference.

:func:`minkowski_reference` is the per-cell, per-face loop that
:func:`repro.analysis.minkowski.minkowski_functionals` replaced: boundary
faces collected per component, Voronoi vertices keyed on coordinates
rounded to 1e-8, edges paired through a ``dict`` and the dihedral term
summed edge by edge.  It shares no code with the flat kernel.  Nothing
under ``src/`` can select it; the parity suite
(``tests/test_analysis_minkowski_parity.py``) asserts the flat kernel
reproduces it.

The seam rule lives here too, written the same loop-wise way: an axis is
periodic when a face between two cells of one component crosses the box
on it (reflecting one site through the face plane lands a box length
away from the other), and on periodic axes vertex keys are taken modulo
the box and the convexity test's face-centre offset by minimum image.

:func:`weld_reference` is the vertex weld as the flat kernel first wrote
it, ``np.unique(rows, axis=0, return_inverse=True)``; the weld test
(``tests/test_analysis_minkowski_weld.py``) holds the kernel's
``_weld`` to it element for element.
"""

import numpy as np

from repro.analysis.components import ComponentLabeling
from repro.analysis.minkowski import MinkowskiFunctionals
from repro.core.tessellate import Tessellation

_KEY_DECIMALS = 8


def _vkey(coord, lo, size, periodic):
    """Integer weld key of one vertex at the 1e-8 resolution."""
    out = []
    for d in range(3):
        x = float(coord[d])
        if periodic[d]:
            k = int(np.rint(np.mod(x - lo[d], size[d]) * 10.0**_KEY_DECIMALS))
            out.append(k % int(np.rint(size[d] * 10.0**_KEY_DECIMALS)))
        else:
            out.append(int(np.rint(x * 10.0**_KEY_DECIMALS)))
    return tuple(out)


def _face_normal_center(pts):
    area_vec = 0.5 * np.cross(pts, np.roll(pts, -1, axis=0)).sum(axis=0)
    return area_vec, pts.mean(axis=0)


def _norm(v):
    return float(np.sqrt((v * v).sum()))


def _dot(a, b):
    return float((a * b).sum())


def minkowski_reference(
    tess: Tessellation, labeling: ComponentLabeling, periodic=None
) -> list[MinkowskiFunctionals]:
    """Functionals for every component of ``labeling``, loop by loop.

    ``periodic`` (three booleans) overrides the seam detection; the
    default derives it from the tessellation as described above.
    ``periodic=(False,) * 3`` is the kernel as it was before the seam
    rule existed.
    """
    label_of = labeling.label_of()
    ncomp = labeling.num_components
    lo, _ = tess.domain.as_arrays()
    size = tess.domain.sizes
    vol = np.zeros(ncomp)
    ncells = np.zeros(ncomp, dtype=np.int64)
    site_of = {
        int(sid): block.sites[i]
        for block in tess.blocks
        for i, sid in enumerate(block.site_ids)
    }
    seam = [False, False, False]

    # Per-component boundary surface soup: (points, outward normal, centre).
    faces = [[] for _ in range(ncomp)]
    for block in tess.blocks:
        for i in range(block.num_cells):
            sid = int(block.site_ids[i])
            comp = label_of.get(sid)
            if comp is None:
                continue
            vol[comp] += float(block.volumes[i])
            ncells[comp] += 1
            site = block.sites[i]
            for f_local, nb in zip(block.faces_of_cell(i), block.neighbors_of_cell(i)):
                nb = int(nb)
                pts = block.vertices[f_local]
                if nb >= 0 and label_of.get(nb) == comp:
                    other = site_of.get(nb)
                    if other is not None and (np.abs(other - site) > size / 2).any():
                        area_vec, center = _face_normal_center(pts)
                        n = area_vec / _norm(area_vec)
                        mirror = site + 2.0 * _dot(center - site, n) * n
                        for d in range(3):
                            seam[d] |= bool(abs(mirror[d] - other[d]) > size[d] / 2)
                    continue  # interior face
                normal, center = _face_normal_center(pts)
                norm = _norm(normal)
                if norm == 0.0:
                    continue  # degenerate sliver face
                normal = normal / norm
                if _dot(normal, center - site) < 0:
                    normal = -normal
                faces[comp].append((pts, normal, center))
    periodic = np.asarray(seam if periodic is None else periodic, dtype=bool)

    out = []
    for comp in range(ncomp):
        s_area = 0.0
        vkeys = set()
        # edge -> list of (face normal, face centre, edge midpoint, length)
        edges = {}
        for pts, normal, center in faces[comp]:
            rounded = np.round(pts, _KEY_DECIMALS)
            area_vec, _ = _face_normal_center(rounded)
            s_area += _norm(area_vec)
            keys = [_vkey(p, lo, size, periodic) for p in pts]
            n = len(keys)
            for a in range(n):
                b = (a + 1) % n
                ka, kb = keys[a], keys[b]
                vkeys.add(ka)
                ekey = (ka, kb) if ka <= kb else (kb, ka)
                edge = rounded[b] - rounded[a]
                mid = 0.5 * (rounded[a] + rounded[b])
                edges.setdefault(ekey, []).append((normal, center, mid, _norm(edge)))

        curvature = 0.0
        for shared in edges.values():
            if len(shared) != 2:
                continue  # non-manifold contact; no well-defined dihedral
            (n1, _, mid, length), (n2, c2, _, _) = shared
            ang = float(np.arccos(np.clip(_dot(n1, n2), -1.0, 1.0)))
            offset = c2 - mid
            offset[periodic] -= np.round(offset[periodic] / size[periodic]) * size[periodic]
            # Convex edge: the other face's centre lies below this face's
            # plane (material bulges outward).
            convex = _dot(n1, offset) < 0.0
            curvature += 0.5 * length * (ang if convex else -ang)

        chi = len(vkeys) - len(edges) + len(faces[comp])
        out.append(
            MinkowskiFunctionals(
                label=comp,
                num_cells=int(ncells[comp]),
                volume=float(vol[comp]),
                surface_area=s_area,
                mean_curvature=curvature,
                euler_characteristic=int(chi),
                genus=1.0 - chi / 2.0,
                num_boundary_faces=len(faces[comp]),
            )
        )
    return out


def weld_reference(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(component, qx, qy, qz)`` rows in lexicographic order and
    each row's index among them, by numpy's row-wise ``np.unique``."""
    welded, vid = np.unique(rows, axis=0, return_inverse=True)
    return welded, vid.ravel()
