"""Query-shaped analysis entry points for the tessellation service.

Every function here answers one catalog query over a *subset* of a
snapshot's :class:`~repro.core.data_model.VoronoiBlock`\\ s — typically the
blocks a :class:`~repro.serve.store.CatalogStore` pulled out of the block
cache for the query's region — and returns a plain JSON-serializable dict,
so the serving layer never has to translate analysis objects onto the
wire.  The heavy lifting is delegated to the existing flat kernels
(:func:`~repro.analysis.voids.find_voids`,
:func:`~repro.analysis.components.connected_components`,
:func:`~repro.analysis.halos.fof_halos`,
:func:`~repro.analysis.minkowski.minkowski_functionals`), which makes the
service a thin projection of the library, not a second implementation.

Region semantics: a region is an axis-aligned box ``[[lo...], [hi...]]``
in domain coordinates.  Connectivity-based queries (voids, components,
Minkowski) are computed over every block *intersecting* the region and
then filtered to features touching it, so a feature straddling the region
boundary is reported as long as part of it is inside; features extending
beyond the loaded block set are truncated at its edge, which the protocol
surfaces via the ``blocks`` field of each response.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..core.data_model import VoronoiBlock
from ..core.tessellate import Tessellation
from ..core.timing import TessTimings
from ..diy.bounds import Bounds, minimum_image
from .components import connected_components
from .halos import fof_halos
from .voids import find_voids, volume_threshold_for_fraction

__all__ = [
    "QueryError",
    "QUERY_OPS",
    "region_bounds",
    "check_query",
    "call_query",
    "run_query",
    "query_voids",
    "query_components",
    "query_halos",
    "query_profile",
    "query_minkowski",
]


class QueryError(ValueError):
    """A query spec is malformed; the message is safe to return to the
    client verbatim."""


def region_bounds(
    region: Sequence[Sequence[float]] | None, domain: Bounds
) -> Bounds | None:
    """Validate a ``[[lo...], [hi...]]`` region against ``domain``.

    Returns ``None`` for a ``None`` region (whole domain).  Raises
    :class:`QueryError` on shape or ordering mistakes — the one place
    client-supplied geometry is checked.
    """
    if region is None:
        return None
    try:
        arr = np.asarray(region, dtype=float)
    except (TypeError, ValueError):
        raise QueryError(
            f"region must be [[lo]*{domain.dim}, [hi]*{domain.dim}] numbers, "
            f"got {region!r}"
        ) from None
    if arr.shape != (2, domain.dim):
        raise QueryError(
            f"region must be [[lo]*{domain.dim}, [hi]*{domain.dim}], "
            f"got shape {arr.shape}"
        )
    if not np.all(arr[1] > arr[0]):
        raise QueryError(f"region hi must exceed lo on every axis: {region}")
    return Bounds.from_arrays(arr[0], arr[1]).clamped_to(domain)


def _tess(domain: Bounds, blocks: Sequence[VoronoiBlock]) -> Tessellation:
    return Tessellation(
        domain=domain, blocks=list(blocks), timings=TessTimings()
    )


def _sites_with_ids(
    blocks: Sequence[VoronoiBlock],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated (sites, site_ids) across blocks, deduplicated by id."""
    if not blocks:
        return np.empty((0, 3)), np.empty(0, dtype=np.int64)
    sites = np.concatenate([b.sites for b in blocks])
    ids = np.concatenate(
        [b.site_ids.astype(np.int64, copy=False) for b in blocks]
    )
    _, first = np.unique(ids, return_index=True)
    return sites[first], ids[first]


def _ids_in_region(
    blocks: Sequence[VoronoiBlock], region: Bounds | None
) -> np.ndarray | None:
    """Sorted site ids whose generating site lies inside ``region``."""
    if region is None:
        return None
    sites, ids = _sites_with_ids(blocks)
    if not len(ids):
        return np.empty(0, dtype=np.int64)
    return np.unique(ids[region.contains_closed(sites)])


def query_voids(
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    vmin: float | None = None,
    vmin_fraction: float = 0.1,
    min_cells: int = 1,
    region: Bounds | None = None,
    top: int = 20,
) -> dict[str, Any]:
    """Void catalog (threshold + connected components) over ``blocks``."""
    tess = _tess(domain, blocks)
    if tess.num_cells == 0:
        return {"op": "voids", "num_voids": 0, "vmin": 0.0, "voids": []}
    if vmin is None:
        vmin = volume_threshold_for_fraction(tess, vmin_fraction)
    catalog = find_voids(tess, vmin=vmin, min_cells=min_cells)
    keep = catalog.voids
    region_ids = _ids_in_region(blocks, region)
    if region_ids is not None:
        keep = [
            v for v in keep if np.isin(v.site_ids, region_ids).any()
        ]
    return {
        "op": "voids",
        "vmin": float(vmin),
        "num_voids": len(keep),
        "total_volume": float(sum(v.volume for v in keep)),
        "voids": [
            {"volume": float(v.volume), "num_cells": int(v.num_cells)}
            for v in keep[:top]
        ],
    }


def query_components(
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    vmin: float | None = None,
    vmax: float | None = None,
    region: Bounds | None = None,
    top: int = 20,
) -> dict[str, Any]:
    """Connected components of cells inside the volume band."""
    tess = _tess(domain, blocks)
    labeling = connected_components(tess, vmin=vmin, vmax=vmax)
    sizes = labeling.sizes()
    region_ids = _ids_in_region(blocks, region)
    if region_ids is not None:
        in_region = np.isin(labeling.site_ids, region_ids)
        labels = np.unique(labeling.labels[in_region])
        sizes = sizes[labels]
    order = np.argsort(sizes)[::-1]
    return {
        "op": "components",
        "num_components": int(len(sizes)),
        "num_cells": int(sizes.sum()),
        "largest": [int(sizes[i]) for i in order[:top]],
    }


def query_halos(
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    linking_fraction: float = 0.2,
    min_members: int = 8,
    region: Bounds | None = None,
    top: int = 20,
) -> dict[str, Any]:
    """Friends-of-friends halos over the cells' generating sites.

    ``linking_fraction`` is the classic ``b`` — the linking length is
    ``b`` times the mean inter-site spacing of the loaded block set.
    """
    sites, ids = _sites_with_ids(blocks)
    if not len(ids):
        return {"op": "halos", "num_halos": 0, "halos": []}
    spacing = (domain.volume / len(ids)) ** (1.0 / 3.0)
    catalog = fof_halos(
        sites,
        linking_fraction * spacing,
        domain=domain,
        min_members=min_members,
        ids=ids,
    )
    halos = catalog.halos
    if region is not None:
        halos = [
            h
            for h in halos
            if bool(region.contains_closed(h.center[None, :])[0])
        ]
    return {
        "op": "halos",
        "num_halos": len(halos),
        "linking_length": float(linking_fraction * spacing),
        "halos": [
            {"mass": int(h.mass), "center": [float(c) for c in h.center]}
            for h in halos[:top]
        ],
    }


def query_profile(
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    center: Sequence[float],
    rmax: float,
    nbins: int = 16,
) -> dict[str, Any]:
    """Radial cell-density profile around ``center``.

    Density is the paper's tessellation estimate — one unit mass per cell
    over its Voronoi volume — so each shell's density is its cell count
    over its cells' summed volume.  Distances are periodic minimum-image.
    """
    ctr = np.asarray(center, dtype=float)
    counts = np.zeros(nbins, dtype=np.int64)
    volsum = np.zeros(nbins)
    edges = np.linspace(0.0, rmax, nbins + 1)
    for block in blocks:
        if not block.num_cells:
            continue
        r = np.linalg.norm(
            minimum_image(block.sites - ctr, domain), axis=1
        )
        sel = r < rmax
        idx = np.minimum((r[sel] / rmax * nbins).astype(int), nbins - 1)
        np.add.at(counts, idx, 1)
        np.add.at(volsum, idx, block.volumes[sel])
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.where(volsum > 0, counts / volsum, 0.0)
    return {
        "op": "profile",
        "center": [float(c) for c in ctr],
        "r_edges": edges.tolist(),
        "counts": counts.tolist(),
        "density": density.tolist(),
    }


def query_minkowski(
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    vmin: float | None = None,
    vmin_fraction: float = 0.1,
    region: Bounds | None = None,
    top: int = 8,
) -> dict[str, Any]:
    """Minkowski functionals / shapefinders of the largest voids."""
    tess = _tess(domain, blocks)
    if tess.num_cells == 0:
        return {"op": "minkowski", "num_voids": 0, "functionals": []}
    if vmin is None:
        vmin = volume_threshold_for_fraction(tess, vmin_fraction)
    catalog = find_voids(tess, vmin=vmin, compute_minkowski=True)
    keep = catalog.voids
    region_ids = _ids_in_region(blocks, region)
    if region_ids is not None:
        keep = [
            v for v in keep if np.isin(v.site_ids, region_ids).any()
        ]
    rows = []
    for v in keep[:top]:
        if v.minkowski is None:
            continue
        row = {
            k: (None if isinstance(f, float) and not np.isfinite(f) else f)
            for k, f in v.minkowski.as_row().items()
        }
        rows.append(row)
    return {
        "op": "minkowski",
        "vmin": float(vmin),
        "num_voids": len(keep),
        "functionals": rows,
    }


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
#: op name -> (handler, spec keys it accepts beyond op/step/region)
QUERY_OPS: dict[str, tuple[Any, frozenset[str]]] = {
    "voids": (query_voids, frozenset({"vmin", "vmin_fraction", "min_cells", "top"})),
    "components": (query_components, frozenset({"vmin", "vmax", "top"})),
    "halos": (
        query_halos,
        frozenset({"linking_fraction", "min_members", "top"}),
    ),
    "profile": (query_profile, frozenset({"center", "rmax", "nbins"})),
    "minkowski": (
        query_minkowski,
        frozenset({"vmin", "vmin_fraction", "top"}),
    ),
}

#: keys the dispatcher itself consumes
_COMMON_KEYS = frozenset({"op", "step", "region"})
#: ops whose handler takes a region= keyword
_REGION_OPS = frozenset({"voids", "components", "halos", "minkowski"})
#: parameters that must be non-negative ints (``true`` would read as 1,
#: ``-3`` as a slice from the end)
_COUNT_KEYS = frozenset({"top", "min_cells", "min_members", "nbins"})
#: parameters that must be finite numbers (JSON ``NaN`` parses, and
#: ``NaN <= 0`` is False); ``_OPTIONAL_KEYS`` may also be null
_REAL_KEYS = frozenset({"vmin", "vmax", "vmin_fraction", "linking_fraction", "rmax"})
_OPTIONAL_KEYS = frozenset({"vmin", "vmax"})


def _finite(value: Any) -> bool:
    """A real JSON number: not a bool, not NaN or an infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_query(
    domain: Bounds, spec: dict[str, Any]
) -> tuple[str, dict[str, Any]]:
    """Check one query spec; return its op and the handler's arguments.

    ``spec`` is the client's JSON object: ``op`` selects the handler
    (``QUERY_OPS[op]``), ``region`` (optional) restricts it spatially, and
    the remaining keys are per-op parameters.  Unknown ops or parameters
    raise :class:`QueryError` naming the offender, so a typo'd request
    fails with a 400, not a silent default.  So do a count (``top``,
    ``min_cells``, ``min_members``, ``nbins``) that is not a non-negative
    integer, a real parameter or ``center`` coordinate that is not a
    finite number, and a value outside its op's range.  The returned
    keyword arguments carry ``region`` parsed to :class:`Bounds` for the
    ops that take one, so :func:`call_query` needs no further checks.
    """
    op = spec.get("op")
    if op not in QUERY_OPS:
        raise QueryError(
            f"unknown op {op!r}; expected one of {sorted(QUERY_OPS)}"
        )
    allowed = QUERY_OPS[op][1]
    extra = set(spec) - allowed - _COMMON_KEYS
    if extra:
        raise QueryError(f"unknown {op} parameters {sorted(extra)}")
    if op == "profile":
        if "center" not in spec or "rmax" not in spec:
            raise QueryError("profile queries require 'center' and 'rmax'")
        if spec.get("region") is not None:
            raise QueryError(
                "profile queries take 'center'/'rmax', not 'region'"
            )
    for key in _COUNT_KEYS & spec.keys():
        value = spec[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise QueryError(f"{key} must be a non-negative integer, got {value!r}")
    for key in _REAL_KEYS & spec.keys():
        value = spec[key]
        if not (value is None and key in _OPTIONAL_KEYS) and not _finite(value):
            raise QueryError(f"{key} must be a finite number, got {value!r}")
    if "center" in spec and not (
        isinstance(spec["center"], list) and all(map(_finite, spec["center"]))
    ):
        raise QueryError(
            f"center must be a list of finite numbers, got {spec['center']!r}"
        )
    if op == "profile":
        if len(spec["center"]) != domain.dim:
            raise QueryError(
                f"center must have {domain.dim} coordinates, got {spec['center']!r}"
            )
        if spec["rmax"] <= 0:
            raise QueryError(f"rmax must be positive, got {spec['rmax']}")
        if not 1 <= spec.get("nbins", 1) <= 4096:
            raise QueryError(f"nbins must be in [1, 4096], got {spec['nbins']}")
    if op == "halos" and not 0 < spec.get("linking_fraction", 0.2) < 10:
        raise QueryError(
            f"linking_fraction must be in (0, 10), got {spec['linking_fraction']}"
        )
    kwargs = {k: spec[k] for k in spec if k in allowed}
    if op in _REGION_OPS:
        kwargs["region"] = region_bounds(spec.get("region"), domain)
    return op, kwargs


def call_query(
    op: str,
    domain: Bounds,
    blocks: Sequence[VoronoiBlock],
    kwargs: dict[str, Any],
) -> dict[str, Any]:
    """Run ``op``'s handler over ``blocks`` with :func:`check_query`'s
    arguments.  A ``TypeError``/``ValueError`` the kernel raises on them
    (FOF's ``min_members >= 1``, say) is the client's: a :class:`QueryError`."""
    try:
        return QUERY_OPS[op][0](domain, blocks, **kwargs)
    except (TypeError, ValueError) as exc:
        raise QueryError(f"bad {op} parameters: {exc}") from exc


def run_query(
    domain: Bounds, blocks: Sequence[VoronoiBlock], spec: dict[str, Any]
) -> dict[str, Any]:
    """Check one query spec (:func:`check_query`) and run it over
    ``blocks`` (:func:`call_query`)."""
    op, kwargs = check_query(domain, spec)
    return call_query(op, domain, blocks, kwargs)
