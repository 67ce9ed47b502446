"""Friends-of-friends halo finder (a sibling in situ tool, paper Figure 4).

Halos are the high-density counterpart of voids: groups of particles whose
pairwise separations chain below a linking length ``b`` (in units of the
mean inter-particle spacing, conventionally b ~ 0.2).  FOF is one more
client of the labeling merge the void finder uses
(:mod:`~repro.analysis.components`): a particle set emits packed int64
rows — one ``(id, id)`` row per owned particle, then one per KD-tree pair
closer than the linking length, in global-id space — and
:func:`~repro.analysis.components._merge_rows` labels the groups.
:func:`fof_halos` merges the rows of one global particle set in process;
:func:`fof_halos_distributed` links each rank's owned + ghost particles
(tess's ghost exchange) and gathers the rows, with the owned positions
aligned to them, at the root.  Both then run the same catalog body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ..diy.bounds import Bounds, minimum_image, wrap_positions
from ..diy.comm import Communicator
from ..diy.decomposition import Decomposition
from ..core.ghost import exchange_ghost_particles
from .components import _merge_rows

__all__ = ["Halo", "HaloCatalog", "fof_halos", "fof_halos_distributed"]


@dataclass(frozen=True)
class Halo:
    """One friends-of-friends group."""

    members: np.ndarray  # global particle ids, sorted
    center: np.ndarray  # periodic-aware mean position, shape (3,)

    @property
    def mass(self) -> int:
        """Member count (unit-mass particles)."""
        return len(self.members)


@dataclass
class HaloCatalog:
    """All halos above the membership threshold, descending by mass."""

    linking_length: float
    min_members: int
    halos: list[Halo] = field(default_factory=list)

    @property
    def num_halos(self) -> int:
        return len(self.halos)

    def masses(self) -> np.ndarray:
        """Member counts, aligned with ``halos``."""
        return np.asarray([h.mass for h in self.halos], dtype=np.int64)

    def mass_function(self, bins: np.ndarray) -> np.ndarray:
        """Halo counts per mass bin (a crude multiplicity function)."""
        return np.histogram(self.masses(), bins=bins)[0]


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


def _checked(
    positions: np.ndarray,
    ids: np.ndarray | None,
    linking_length: float,
    min_members: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, ids)`` as float64 ``(n, 3)`` and int64 ``(n,)``
    arrays; raises ``ValueError`` naming the first bad argument."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {pos.shape}")
    pid = np.asarray(np.arange(len(pos)) if ids is None else ids, dtype=np.int64)
    if pid.shape != (len(pos),):
        raise ValueError(
            f"ids must hold one id per position ({len(pos)}), got shape {pid.shape}"
        )
    if not (np.isfinite(linking_length) and linking_length > 0):
        raise ValueError(f"linking_length must be finite and > 0, got {linking_length}")
    if min_members < 1:
        raise ValueError(f"min_members must be >= 1, got {min_members}")
    return pos, pid


def _halo_part(
    pos: np.ndarray,
    pid: np.ndarray,
    owned: int,
    linking_length: float,
    domain: Bounds | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One particle set's merge rows and the positions of its first
    ``owned`` particles, which the first ``owned`` rows ``(id, id)``
    stand for; the rest of ``pos``/``pid`` are ghosts, linked but
    counted where they are owned."""
    pairs = _link_pairs(pos, linking_length, domain)
    rows = np.concatenate(
        [np.stack([pid[:owned], pid[:owned]], axis=1), pid[pairs]]
    )
    return rows, pos[:owned]


def _halo_catalog(
    parts: list[tuple[np.ndarray, np.ndarray]],
    domain: Bounds | None,
    linking_length: float,
    min_members: int,
) -> HaloCatalog:
    """The catalog from every part's :func:`_halo_part`: merge, group by
    label, and centre each group on its id-ordered member positions."""
    labeling = _merge_rows([rows for rows, _ in parts])
    pid = np.concatenate([rows[: len(p), 0] for rows, p in parts])
    if len(labeling.site_ids) != len(pid):
        raise ValueError(
            f"ids must be unique: {len(pid)} particles carry "
            f"{len(labeling.site_ids)} distinct ids"
        )
    pos = np.concatenate([p for _, p in parts])[np.argsort(pid)]

    catalog = HaloCatalog(linking_length=linking_length, min_members=min_members)
    order, bounds = labeling.grouping()
    for label in np.flatnonzero(labeling.sizes() >= min_members).tolist():
        members = order[bounds[label] : bounds[label + 1]]
        pts = pos[members]
        if domain is not None:
            ref = pts[0]
            rel = minimum_image(pts - ref, domain)
            center = wrap_positions((ref + rel.mean(axis=0))[None, :], domain)[0]
        else:
            center = pts.mean(axis=0)
        catalog.halos.append(Halo(members=labeling.site_ids[members], center=center))
    catalog.halos.sort(key=lambda h: (-h.mass, int(h.members[0])))
    return catalog


def fof_halos(
    positions: np.ndarray,
    linking_length: float,
    domain: Bounds | None = None,
    min_members: int = 10,
    ids: np.ndarray | None = None,
) -> HaloCatalog:
    """Serial friends-of-friends over a global particle set.

    Parameters
    ----------
    positions:
        ``(n, 3)`` particle positions (inside ``domain`` if periodic).
    linking_length:
        Absolute linking length (multiply ``b`` by the mean spacing first).
    domain:
        Periodic domain; ``None`` for open boundaries.
    min_members:
        Minimum group size to report (the classic choice is 10-20).
    ids:
        Global particle ids, unique, one per position (default ``arange``).
    """
    pos, pid = _checked(positions, ids, linking_length, min_members)
    part = _halo_part(pos, pid, len(pos), linking_length, domain)
    return _halo_catalog([part], domain, linking_length, min_members)


def fof_halos_distributed(
    comm: Communicator,
    decomposition: Decomposition,
    positions: np.ndarray,
    ids: np.ndarray,
    linking_length: float,
    min_members: int = 10,
    gid: int | None = None,
) -> HaloCatalog:
    """Distributed FOF: local linking + root merge (collective).

    Each rank links its owned + ghost particles (ghost thickness = the
    linking length suffices: any cross-rank link has both endpoints within
    one linking length of the boundary).  Its rows, in global ids, and its
    owned positions are gathered at the root, which runs :func:`fof_halos`'s
    catalog body on them; the catalog is broadcast back.
    """
    pos, pid = _checked(positions, ids, linking_length, min_members)
    gid = comm.rank if gid is None else gid
    ghost_pos, ghost_ids = exchange_ghost_particles(
        decomposition, comm, gid, pos, pid, ghost=1.001 * linking_length
    )
    # Local linking in the block's frame (non-periodic: ghosts already
    # carry translated periodic images).
    part = _halo_part(
        np.concatenate([pos, ghost_pos]) if len(ghost_pos) else pos,
        np.concatenate([pid, ghost_ids]),
        len(pos),
        linking_length,
        None,
    )
    gathered = comm.gather(part, root=0)
    catalog = None
    if comm.rank == 0:
        catalog = _halo_catalog(
            gathered, decomposition.domain, linking_length, min_members
        )
    return comm.bcast(catalog, root=0)
