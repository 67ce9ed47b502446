"""HACC-style particle checkpoints (paper §III-C2's 40 B/particle baseline).

The paper compares tess's output budget against "a HACC checkpoint that
saves only particle data" at 40 bytes per particle.  That layout is
reproduced exactly: per particle, six float32 phase-space components, one
float32 scalar slot (HACC stores the potential; here it carries the cell
density when a tessellation has annotated it — the paper's §V proposal),
a uint32 status mask, and an int64 id:

    6 * 4 (x y z vx vy vz) + 4 (scalar) + 4 (mask) + 8 (id) = 40 bytes.

For *restart* checkpoints (as opposed to analysis outputs) the writer also
supports ``precision="f8"`` — full float64 phase space, as production HACC
uses for its own restart dumps — so a resumed run reproduces the
uninterrupted run **bit for bit**, not merely to float32 rounding.

Checkpoints are written collectively through the DIY blocked writer (one
block per rank), which is crash-consistent: the file is staged in a temp
path and atomically renamed into place only after every rank has written
and fsynced, so a rank dying mid-checkpoint never destroys the previous
good checkpoint (see :mod:`repro.diy.mpi_io`).  Torn or truncated files
are rejected with :class:`CheckpointError` — by the container's CRC32
footer, by per-block size validation in :func:`_decode_block`, and
(behind ``validate=True``) by a global particle-id coverage check.

:func:`restart_simulation` reconstructs a :class:`HACCSimulation` mid-run;
:func:`find_latest_checkpoint` scans a checkpoint directory for the newest
file that passes full validation, which is what the recovery driver
(:func:`repro.hacc.simulation.run_with_recovery`) restarts from.
"""

from __future__ import annotations

import os
import re
import struct

import numpy as np

from ..diy.comm import Communicator
from ..diy.mpi_io import BlockFileReader, CheckpointError, write_blocks
from ..observe import trace as _trace
from .particles import ParticleSet
from .simulation import HACCSimulation, SimulationConfig

__all__ = [
    "BYTES_PER_PARTICLE",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_blocks",
    "restart_simulation",
    "checkpoint_path",
    "list_checkpoints",
    "find_latest_checkpoint",
]

BYTES_PER_PARTICLE = 40

_BLOCK_MAGIC = b"HCKP"
#: magic, precision flag (0 = f4, 1 = f8), scale factor, step, np_side, n
_BLOCK_HEADER = struct.Struct("<4sBdQiQ")
_PRECISIONS = {"f4": 0, "f8": 1}
_ITEMSIZE = {0: 4, 1: 8}

_CKPT_RE = re.compile(r"^ckpt-(\d{6})\.ckpt$")


def _encode_block(
    particles: ParticleSet, a: float, step: int, np_side: int,
    scalar: np.ndarray | None = None,
    precision: str = "f4",
) -> bytes:
    try:
        prec = _PRECISIONS[precision]
    except KeyError:
        raise ValueError(f"precision must be 'f4' or 'f8', got {precision!r}")
    ftype = f"<f{_ITEMSIZE[prec]}"
    n = len(particles)
    rec = np.empty((n, 7), dtype=ftype)
    rec[:, 0:3] = particles.positions
    rec[:, 3:6] = particles.velocities
    rec[:, 6] = 0.0 if scalar is None else np.asarray(scalar, dtype=ftype)
    mask = np.zeros(n, dtype="<u4")  # HACC's per-particle status word
    return (
        _BLOCK_HEADER.pack(_BLOCK_MAGIC, prec, a, step, np_side, n)
        + rec.tobytes()
        + mask.tobytes()
        + particles.ids.astype("<i8").tobytes()
    )


def _decode_block(
    blob: bytes, path: str = "<memory>", gid: int = -1
) -> tuple[ParticleSet, np.ndarray, float, int, int]:
    """Decode one checkpoint block, validating sizes up front.

    A truncated or foreign blob raises :class:`CheckpointError` naming the
    path, block gid, and expected vs. actual byte counts — never an opaque
    ``ValueError`` out of ``np.frombuffer``.
    """
    if len(blob) < _BLOCK_HEADER.size:
        raise CheckpointError(
            f"{path}: checkpoint block {gid} truncated: {len(blob)} bytes, "
            f"header alone is {_BLOCK_HEADER.size}"
        )
    magic, prec, a, step, np_side = _BLOCK_HEADER.unpack_from(blob, 0)[:5]
    n = _BLOCK_HEADER.unpack_from(blob, 0)[5]
    if magic != _BLOCK_MAGIC:
        raise CheckpointError(
            f"{path}: block {gid} is not a HACC checkpoint block "
            f"(magic {magic!r})"
        )
    if prec not in _ITEMSIZE:
        raise CheckpointError(
            f"{path}: block {gid} has unknown precision flag {prec}"
        )
    itemsize = _ITEMSIZE[prec]
    expected = _BLOCK_HEADER.size + n * (7 * itemsize + 4 + 8)
    if len(blob) != expected:
        raise CheckpointError(
            f"{path}: checkpoint block {gid} holds {len(blob)} bytes, "
            f"expected {expected} for {n} particles"
        )
    off = _BLOCK_HEADER.size
    rec = np.frombuffer(
        blob, dtype=f"<f{itemsize}", count=7 * n, offset=off
    ).reshape(n, 7)
    off += 7 * itemsize * n
    off += 4 * n  # status mask (unused on read)
    ids = np.frombuffer(blob, dtype="<i8", count=n, offset=off)
    particles = ParticleSet(
        positions=rec[:, 0:3].astype(float),
        velocities=rec[:, 3:6].astype(float),
        ids=ids.copy(),
    )
    return particles, rec[:, 6].astype(float), float(a), int(step), int(np_side)


def write_checkpoint(
    path: str,
    comm: Communicator | None,
    sim: HACCSimulation,
    scalar: np.ndarray | None = None,
    precision: str = "f4",
) -> int:
    """Collectively write the simulation state; returns total file bytes.

    ``scalar`` optionally fills the per-particle annotation slot (e.g. the
    Voronoi cell density from an in situ tessellation).  ``precision`` is
    ``"f4"`` (the paper's 40 B/particle analysis budget) or ``"f8"`` (exact
    restart, as HACC's own restart dumps).  ``comm=None`` writes one block
    on the 1-rank communicator.
    """
    comm = Communicator.one_rank() if comm is None else comm
    with _trace.span(
        "checkpoint", rank=comm.rank, cat="io", step=sim.step_index
    ):
        blob = _encode_block(
            sim.local, sim.a, sim.step_index, sim.config.np_side, scalar, precision
        )
        return write_blocks(
            path, comm, [(comm.rank, blob)], nblocks_total=comm.size
        )


def read_checkpoint_blocks(
    path: str, validate: bool = False
) -> tuple[list[tuple[ParticleSet, np.ndarray]], float, int, int]:
    """Read all blocks of a checkpoint, preserving per-block particle order.

    Returns ``(blocks, a, step, np_side)`` where ``blocks[gid]`` is that
    block's ``(particles, scalar)`` exactly as written — which is what makes
    a same-rank-count restart bit-identical.  With ``validate=True`` the
    global particle-id set is additionally checked to be exactly
    ``0..np_side**3 - 1`` with no duplicates, rejecting files assembled
    from torn writes of the pre-CRC format.
    """
    blocks: list[tuple[ParticleSet, np.ndarray]] = []
    meta = None
    with BlockFileReader(path) as reader:
        if reader.nblocks == 0:
            raise CheckpointError(f"{path}: checkpoint contains no blocks")
        for gid in range(reader.nblocks):
            p, s, a, step, np_side = _decode_block(
                reader.read_block(gid), path=path, gid=gid
            )
            blocks.append((p, s))
            if meta is None:
                meta = (a, step, np_side)
            elif meta != (a, step, np_side):
                raise CheckpointError(
                    f"{path}: inconsistent block headers (block {gid} says "
                    f"{(a, step, np_side)}, block 0 says {meta})"
                )
    assert meta is not None
    a, step, np_side = meta
    if validate:
        ids = np.concatenate([p.ids for p, _ in blocks]) if blocks else np.empty(0)
        expected_n = np_side**3
        unique = np.unique(ids)
        if len(ids) != expected_n or len(unique) != len(ids):
            raise CheckpointError(
                f"{path}: checkpoint holds {len(ids)} particles "
                f"({len(ids) - len(unique)} duplicate ids), expected "
                f"{expected_n} unique for a {np_side}^3 run"
            )
        if unique[0] != 0 or unique[-1] != expected_n - 1:
            raise CheckpointError(
                f"{path}: particle ids span [{unique[0]}, {unique[-1]}], "
                f"expected exactly 0..{expected_n - 1}"
            )
    return blocks, a, step, np_side


def read_checkpoint(
    path: str, validate: bool = False
) -> tuple[ParticleSet, np.ndarray, float, int, int]:
    """Read all blocks of a checkpoint.

    Returns ``(particles, scalar, a, step, np_side)`` with the particles
    concatenated across blocks.  See :func:`read_checkpoint_blocks` for
    ``validate``.
    """
    blocks, a, step, np_side = read_checkpoint_blocks(path, validate=validate)
    particles = ParticleSet.concatenate([p for p, _ in blocks])
    scalar = (
        np.concatenate([s for _, s in blocks]) if blocks else np.empty(0)
    )
    return particles, scalar, a, step, np_side


def restart_simulation(
    path: str,
    config: SimulationConfig,
    comm: Communicator | None = None,
    validate: bool = True,
) -> HACCSimulation:
    """Rebuild a mid-run simulation from a checkpoint.

    ``config`` must match the checkpointed run (particle count is
    verified; physics parameters are the caller's responsibility, exactly
    as with HACC input decks).  When the restart rank count equals the
    writing rank count, each rank takes its own block's particles *in
    stored order*, so resuming an ``"f8"``-precision checkpoint reproduces
    the uninterrupted run bit for bit; otherwise particles are
    redistributed under the current decomposition.  ``comm=None``
    restarts on the 1-rank communicator.

    The per-particle scalar annotation (the Voronoi cell density of the
    paper's §V proposal) is redistributed alongside the particles and
    exposed as ``sim.cell_density``, aligned with ``sim.local``.
    """
    blocks, a, step, np_side = read_checkpoint_blocks(path, validate=validate)
    if np_side != config.np_side:
        raise ValueError(
            f"checkpoint is a {np_side}^3 run; config says {config.np_side}^3"
        )
    sim = HACCSimulation(config, comm=comm)
    if len(blocks) == sim.comm.size:
        # Same layout as the writer: adopt this rank's block verbatim.
        particles, scalar = blocks[sim.gid]
        sim.local = particles
        sim.cell_density = scalar
    else:
        particles = ParticleSet.concatenate([p for p, _ in blocks])
        scalar = np.concatenate([s for _, s in blocks])
        mine = sim.decomposition.locate(sim._to_mpc(particles.positions)) == sim.gid
        sim.local = particles.select(mine)
        sim.cell_density = scalar[mine].copy()
    sim.a = a
    sim.step_index = step
    return sim


# ----------------------------------------------------------------------
# checkpoint directories (the recovery driver's storage layout)
# ----------------------------------------------------------------------
def checkpoint_path(directory: str | os.PathLike, step: int) -> str:
    """Canonical path of the checkpoint taken after ``step`` steps."""
    return os.path.join(os.fspath(directory), f"ckpt-{step:06d}.ckpt")


def list_checkpoints(directory: str | os.PathLike) -> list[tuple[int, str]]:
    """All checkpoint files in ``directory`` as ``(step, path)``, ascending.

    Only well-named files are listed; no validation is performed (use
    :func:`find_latest_checkpoint` for that).
    """
    directory = os.fspath(directory)
    out: list[tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        m = _CKPT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    return sorted(out)


def find_latest_checkpoint(
    directory: str | os.PathLike, config: SimulationConfig | None = None
) -> tuple[int, str] | None:
    """The newest checkpoint in ``directory`` that passes full validation.

    Candidates are tried newest-first; torn, truncated, or id-incomplete
    files (and, when ``config`` is given, wrong-``np_side`` files) are
    skipped, so a crash *during* a checkpoint write falls back to the
    previous good one.  Returns ``(step, path)`` or ``None``.
    """
    for step, path in reversed(list_checkpoints(directory)):
        try:
            _, _, _, np_side = read_checkpoint_blocks(path, validate=True)
        except (CheckpointError, OSError, struct.error):
            continue
        if config is not None and np_side != config.np_side:
            continue
        return step, path
    return None
