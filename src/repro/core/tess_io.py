"""tess file I/O: parallel write, full or subset read (paper §III-C2).

One tessellation is one DIY block file (see :mod:`repro.diy.mpi_io`): every
rank writes its :class:`~repro.core.data_model.VoronoiBlock` payload at an
exclusive-scan offset, and the footer indexes blocks by gid.  Each block's
payload also records the global domain so a reader needs nothing else.
"""

from __future__ import annotations

import numpy as np

from ..diy.bounds import Bounds
from ..diy.comm import Communicator, run_parallel
from ..diy.mpi_io import BlockFileReader, pack_arrays, unpack_arrays, write_blocks
from .data_model import VoronoiBlock
from .timing import TessTimings

__all__ = [
    "write_tessellation",
    "write_tessellation_serial",
    "read_tessellation",
    "read_blocks",
    "block_from_payload",
    "scan_block_extents",
]


def _payload(block: VoronoiBlock, domain: Bounds) -> bytes:
    arrays = block.to_arrays()
    lo, hi = domain.as_arrays()
    arrays["domain"] = np.stack([lo, hi])
    return pack_arrays(arrays)


def block_from_payload(
    blob: bytes | memoryview,
) -> tuple[VoronoiBlock, Bounds]:
    """Decode one tess payload (bytes or an mmap view) into its block.

    Returns ``(block, domain)`` — every payload records the global domain,
    so a reader serving a single block needs nothing else from the file.
    """
    arrays = unpack_arrays(blob)
    dom = arrays.pop("domain")
    return VoronoiBlock.from_arrays(arrays), Bounds.from_arrays(dom[0], dom[1])


_block_from_payload = block_from_payload


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
        arrays = unpack_arrays(
            reader.read_block_view(gid, verify=False),
            only={"extents", "domain"},
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
            block, dom = _block_from_payload(reader.read_block(gid))
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
