"""The kd-tree + dict friends-of-friends finder, kept as the parity reference.

:func:`fof_halos_dict` is the serial finder that
:func:`repro.analysis.halos.fof_halos` replaced with the packed-row merge:
a periodic KD-tree pair query (:func:`_link_pairs`), a per-particle
``groups`` dict and a ``pos_by_id`` dict, and one periodic-aware centre
per group (:func:`_catalog_from_groups`).  It labels through the dict
:class:`~tests.components_reference.UnionFind`, so it shares no labeling
code with ``src/``; only the :class:`~repro.analysis.halos.HaloCatalog`
container and the periodic helpers of :mod:`repro.diy.bounds` are common.
Nothing under ``src/`` can select it; ``tests/test_analysis_halos.py``
asserts both FOF entry points reproduce it bit for bit.
"""

import numpy as np
from scipy.spatial import cKDTree

from repro.analysis.halos import Halo, HaloCatalog
from repro.diy.bounds import Bounds, minimum_image, wrap_positions

from .components_reference import UnionFind


def _link_pairs(
    positions: np.ndarray, linking_length: float, domain: Bounds | None
) -> np.ndarray:
    """All particle index pairs closer than the linking length."""
    if domain is not None:
        lo, _ = domain.as_arrays()
        tree = cKDTree(
            np.asarray(positions) - lo, boxsize=domain.sizes
        )  # periodic metric
    else:
        tree = cKDTree(positions)
    pairs = tree.query_pairs(r=linking_length, output_type="ndarray")
    return pairs


def _catalog_from_groups(
    groups: dict[int, list[int]],
    pos_by_id: dict[int, np.ndarray],
    domain: Bounds | None,
    linking_length: float,
    min_members: int,
) -> HaloCatalog:
    catalog = HaloCatalog(linking_length=linking_length, min_members=min_members)
    for members in groups.values():
        if len(members) < min_members:
            continue
        ids = np.asarray(sorted(members), dtype=np.int64)
        pts = np.asarray([pos_by_id[int(i)] for i in ids])
        ref = pts[0]
        if domain is not None:
            rel = minimum_image(pts - ref, domain)
            center = wrap_positions((ref + rel.mean(axis=0))[None, :], domain)[0]
        else:
            center = pts.mean(axis=0)
        catalog.halos.append(Halo(members=ids, center=center))
    catalog.halos.sort(key=lambda h: (-h.mass, int(h.members[0])))
    return catalog


def fof_halos_dict(
    positions: np.ndarray,
    linking_length: float,
    domain: Bounds | None = None,
    min_members: int = 10,
    ids: np.ndarray | None = None,
) -> HaloCatalog:
    """Serial friends-of-friends over a global particle set, pair by pair."""
    pos = np.asarray(positions, dtype=float)
    pid = np.arange(len(pos), dtype=np.int64) if ids is None else np.asarray(ids)

    uf = UnionFind()
    for i in range(len(pos)):
        uf.add(i)
    for a, b in _link_pairs(pos, linking_length, domain).tolist():
        uf.union(a, b)

    groups: dict[int, list[int]] = {}
    for root, members in uf.groups().items():
        groups[root] = [int(pid[i]) for i in members]
    pos_by_id = {int(pid[i]): pos[i] for i in range(len(pos))}
    return _catalog_from_groups(groups, pos_by_id, domain, linking_length, min_members)
