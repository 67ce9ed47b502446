"""tess file I/O: parallel write, full or subset read (paper §III-C2).

One tessellation is one DIY block file (see :mod:`repro.diy.mpi_io`): the
ranks write their block payloads in gid order, and the footer indexes
blocks by gid.  Each payload also records the global domain so a reader
needs nothing else.  This module is the only one that knows the
payload; everything else sees the in-memory
:class:`~repro.core.data_model.VoronoiBlock`.

On disk (payload v3, one :func:`~repro.diy.mpi_io.pack_arrays` container
per block) the connectivity is lossless but narrow:

===================  =================================================
``face_vertices``    vertex-pool indices, narrowest unsigned dtype
``face_lengths``     vertices per face (in memory: ``face_offsets``)
``cell_faces``       faces per cell (in memory: ``cell_face_offsets``)
``neighbor_deltas``  neighbour id minus the owning cell's site id,
                     narrowest signed dtype (wrapping int64 arithmetic)
===================  =================================================

``gid``, ``extents``, ``domain``, ``vertices``, ``sites``, ``site_ids``,
``volumes`` and ``areas`` are stored as they are in memory.
:func:`block_from_payload` reads only this key set, checks the decoded
arrays against the mesh invariants, and refuses anything else (an older
payload that stored the in-memory offsets, a HACC checkpoint, foreign
arrays) as not a tess payload.
"""

from __future__ import annotations

import struct

import numpy as np

from ..diy.bounds import Bounds
from ..diy.comm import Communicator, run_parallel
from ..diy.mpi_io import (
    BlockFileReader,
    CheckpointError,
    pack_arrays,
    unpack_arrays,
    write_blocks,
)
from .data_model import VoronoiBlock, connectivity_index_dtype, narrowest_int_dtype
from .timing import TessTimings

__all__ = [
    "write_tessellation",
    "write_tessellation_serial",
    "read_tessellation",
    "read_blocks",
    "block_from_payload",
    "scan_block_extents",
]

_PAYLOAD_KEYS = {"gid", "extents", "domain", "vertices", "face_vertices",
                 "face_lengths", "cell_faces", "neighbor_deltas", "sites",
                 "site_ids", "volumes", "areas"}


def _narrow(values: np.ndarray, kind: str) -> np.ndarray:
    """``values`` in the narrowest integer dtype of ``kind`` holding them."""
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    return values.astype(narrowest_int_dtype(lo, hi, kind))


def _payload(block: VoronoiBlock, domain: Bounds) -> bytes:
    arrays = block.to_arrays()
    lo, hi = domain.as_arrays()
    arrays["domain"] = np.stack([lo, hi])
    cell_faces = np.diff(arrays.pop("cell_face_offsets"))
    owners = np.repeat(block.site_ids, cell_faces)
    arrays["cell_faces"] = _narrow(cell_faces, "u")
    arrays["face_lengths"] = _narrow(np.diff(arrays.pop("face_offsets")), "u")
    arrays["neighbor_deltas"] = _narrow(arrays.pop("face_neighbors") - owners, "i")
    arrays["face_vertices"] = _narrow(block.face_vertices, "u")
    return pack_arrays(arrays)


def _unpack(blob, where: str, keys: set[str] | None = None) -> dict:
    """The payload's arrays (only ``keys`` when given), or a
    :class:`CheckpointError` saying it is not a tess payload — a foreign
    block file (a HACC checkpoint) shares the container."""
    try:
        arrays = unpack_arrays(blob, only=keys)
        reason = None
    except (struct.error, ValueError, EOFError) as exc:
        reason = str(exc)
    # Raised outside the handler and after the ``del``: a traceback that
    # kept an mmap view alive would make closing the reader fail.
    del blob
    if reason is None and keys is not None and set(arrays) != keys:
        reason = f"arrays {sorted(arrays)}"
    if reason is not None:
        raise CheckpointError(f"{where}: not a tess payload ({reason})")
    return arrays


def _ints(where: str, arrays: dict, names: tuple[str, ...]) -> None:
    for name in names:
        if arrays[name].ndim != 1 or arrays[name].dtype.kind not in "iu":
            raise CheckpointError(
                f"{where}: {name} is not a 1-d integer array "
                f"({arrays[name].dtype}, shape {arrays[name].shape})"
            )


def _check(where: str, arrays: dict) -> None:
    """Mesh invariants of the decoded arrays; an offset array is named in
    the message by the stored counts it came from."""

    def fail(name: str, what: str):
        raise CheckpointError(f"{where}: {name} {what}")

    nv, nc = len(arrays["vertices"]), len(arrays["site_ids"])
    nf, nfv = len(arrays["face_neighbors"]), len(arrays["face_vertices"])
    shapes = {"gid": (1,), "extents": (2, 3), "domain": (2, 3),
              "vertices": (nv, 3), "sites": (nc, 3), "volumes": (nc,),
              "areas": (nc,)}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            fail(name, f"has shape {arrays[name].shape}, expected {shape}")
    for key, name, parts, total in (
        ("face_offsets", "face_lengths", nf, nfv),
        ("cell_face_offsets", "cell_faces", nc, nf),
    ):
        off = arrays[key]
        if len(off) != parts + 1:
            fail(name, f"covers {len(off) - 1} items, expected {parts}")
        if off[-1] != total or np.any(off[1:] < off[:-1]):
            fail(name, f"must address entries [0, {total}) in order, "
                       f"addresses [{off[0]}, {off[-1]})")
    fv = arrays["face_vertices"]
    if nfv and (fv.min() < 0 or fv.max() >= nv):
        fail("face_vertices", f"index past the {nv}-vertex pool")


def block_from_payload(
    blob: bytes | memoryview, path: str = "<payload>", gid: int | None = None
) -> tuple[VoronoiBlock, Bounds]:
    """Decode one tess payload (bytes or an mmap view) into its block.

    Returns ``(block, domain)`` — every payload records the global domain,
    so a reader serving a single block needs nothing else from the file.
    A payload that is not a tess block or breaks a mesh invariant raises
    :class:`CheckpointError` naming ``path``, ``gid`` and the array.
    """
    where = f"{path}: block {gid}"
    try:
        arrays = _unpack(blob, where)
    finally:
        del blob  # the arrays are copies; see _unpack
    if set(arrays) != _PAYLOAD_KEYS:
        raise CheckpointError(
            f"{where}: not a tess payload (arrays {sorted(arrays)})"
        )
    _ints(where, arrays, ("face_vertices", "face_lengths", "cell_faces",
                          "neighbor_deltas", "site_ids"))
    for key, name in (("face_offsets", "face_lengths"),
                      ("cell_face_offsets", "cell_faces")):
        counts = np.cumsum(arrays.pop(name), dtype=np.int64)
        arrays[key] = np.concatenate(([0], counts))
    arrays["face_neighbors"] = arrays.pop("neighbor_deltas")
    _check(where, arrays)
    # the in-memory dtype rule of every block constructor, so a decoded
    # block has the written block's dtypes
    idx = connectivity_index_dtype(
        max(len(arrays["face_vertices"]), len(arrays["vertices"]))
    )
    for key in ("face_vertices", "face_offsets", "cell_face_offsets"):
        arrays[key] = arrays[key].astype(idx)
    arrays["face_neighbors"] = np.repeat(
        arrays["site_ids"], np.diff(arrays["cell_face_offsets"])
    ) + arrays["face_neighbors"].astype(np.int64)
    dom = arrays.pop("domain")
    return VoronoiBlock.from_arrays(arrays), Bounds.from_arrays(dom[0], dom[1])


def scan_block_extents(
    reader: BlockFileReader,
) -> tuple[list[Bounds], Bounds]:
    """Per-gid block extents plus the domain, without decoding geometry.

    Reads only the tiny ``extents``/``domain`` arrays out of each payload
    through the reader's mmap view (pages for the multi-megabyte mesh
    arrays are never touched), which is how the catalog store maps a query
    region onto the blocks that intersect it.
    """
    extents: list[Bounds] = []
    domain: Bounds | None = None
    for gid in range(reader.nblocks):
        arrays = _unpack(
            reader.read_block_view(gid, verify=False),
            f"{reader.path}: block {gid}",
            {"extents", "domain"},
        )
        ext = arrays["extents"]
        extents.append(Bounds.from_arrays(ext[0], ext[1]))
        if domain is None:
            dom = arrays["domain"]
            domain = Bounds.from_arrays(dom[0], dom[1])
    if domain is None:
        raise ValueError(f"{reader.path}: file contains no blocks")
    return extents, domain


def write_tessellation(
    path: str,
    comm: Communicator,
    blocks: list[VoronoiBlock],
    domain: Bounds,
    nblocks: int,
) -> int:
    """Collective write of this rank's ``blocks`` (any number, one per rank
    in the paper's layout) into the ``nblocks``-block file at ``path``;
    returns total file bytes."""
    blobs = [(b.gid, _payload(b, domain)) for b in blocks]
    return write_blocks(path, comm, blobs, nblocks_total=nblocks)


def write_tessellation_serial(path: str, tess) -> int:
    """Write an assembled :class:`Tessellation` from a single caller."""
    return run_parallel(
        1,
        lambda comm: write_tessellation(
            path, comm, tess.blocks, tess.domain, len(tess.blocks)
        ),
    )[0]


def read_blocks(
    path: str, gids: list[int] | None = None
) -> tuple[list[VoronoiBlock], Bounds]:
    """Read selected blocks (default: all) and the recorded domain."""
    with BlockFileReader(path) as reader:
        wanted = list(range(reader.nblocks)) if gids is None else list(gids)
        blocks: list[VoronoiBlock] = []
        domain: Bounds | None = None
        for gid in wanted:
            block, dom = block_from_payload(reader.read_block(gid), path, gid)
            blocks.append(block)
            domain = dom
    if domain is None:
        raise ValueError(f"{path}: no blocks requested")
    return blocks, domain


def read_tessellation(path: str):
    """Read a whole tess file back into a :class:`Tessellation`."""
    from .tessellate import Tessellation

    blocks, domain = read_blocks(path)
    return Tessellation(domain=domain, blocks=blocks, timings=TessTimings())
