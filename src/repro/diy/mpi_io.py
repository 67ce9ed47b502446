"""Single-file blocked I/O in the style of DIY's parallel writer.

All blocks of a decomposition are written into **one file**: a fixed header,
then the blocks' serialized payloads in gid order, then a footer index of
``(gid, offset, size, crc32)`` records and a trailing pointer to the
footer.  The layout depends only on the payloads, not on which rank held
which block, so the same blocks make the same bytes at any rank count.  On
real MPI this is ``MPI_File_write_at_all``; here each rank performs
positioned writes (``os.pwrite``) on a private descriptor into the shared
file, which keeps the exact offset arithmetic and collective
structure of the original — ranks are OS processes
(:func:`~repro.diy.comm.run_parallel`), and nothing but the communicator
and the file are shared between them.

Crash consistency
-----------------
:func:`write_blocks` is **crash-consistent**: every rank writes into a
deterministic temp path next to the destination, each rank ``fsync``\\ s its
payload bytes, and only after all ranks have finished does rank 0 append the
footer, ``fsync``, and atomically ``os.replace`` the temp file over the
destination (followed by a directory fsync so the rename itself is durable).
A crash at *any* point — a rank dying mid-payload, the footer half written,
power loss before the rename — leaves the previous file at ``path`` intact;
the orphaned ``path + ".tmp"`` is simply overwritten by the next write.

Torn or truncated files are additionally *detectable*: the footer carries a
CRC32 per block payload, the trailer carries a CRC32 of the footer itself
plus an end-of-file magic, and :class:`BlockFileReader` validates all three,
raising a precise :class:`CheckpointError` instead of handing back garbage.

The payload format is caller-defined bytes; :func:`pack_arrays` /
:func:`unpack_arrays` provide a safe (``allow_pickle=False``) container for
named NumPy arrays used by the tessellation data model.

File layout (version 2)::

    offset 0        magic  b"DIYB"  (4 bytes)
    4               version u32
    8               nblocks u64
    16              block payloads, tightly packed in gid order
    footer_offset   nblocks x (gid u64, offset u64, size u64, crc32 u32)
    end-16          footer_offset u64, footer_crc32 u32, magic b"DIYE"

Any other version (version 1 had no checksums) is refused.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .. import faults
from .comm import Communicator

__all__ = [
    "pack_arrays",
    "unpack_arrays",
    "write_blocks",
    "BlockFileReader",
    "CheckpointError",
    "HEADER_SIZE",
]

_MAGIC = b"DIYB"
_END_MAGIC = b"DIYE"
_VERSION = 2
_HEADER = struct.Struct("<4sIQ")
_INDEX_ENTRY = struct.Struct("<QQQI")
_TRAILER = struct.Struct("<QI4s")

HEADER_SIZE = _HEADER.size


class CheckpointError(ValueError):
    """A block file (or checkpoint built on one) is torn, truncated, or
    otherwise inconsistent.  The message names the path and what failed."""


# ----------------------------------------------------------------------
# array container serialization
# ----------------------------------------------------------------------
def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize a mapping of names to arrays into a self-describing blob.

    Uses the ``.npy`` wire format per array (no pickling), so any dtype/shape
    round-trips exactly.  Keys are written in sorted order for determinism.
    """
    out = io.BytesIO()
    keys = sorted(arrays)
    out.write(struct.pack("<I", len(keys)))
    for key in keys:
        kb = key.encode("utf-8")
        body = io.BytesIO()
        np.save(body, np.ascontiguousarray(arrays[key]), allow_pickle=False)
        blob = body.getvalue()
        out.write(struct.pack("<H", len(kb)))
        out.write(kb)
        out.write(struct.pack("<Q", len(blob)))
        out.write(blob)
    return out.getvalue()


def unpack_arrays(
    blob: bytes | memoryview, only: set[str] | None = None
) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`.

    Accepts any buffer (``bytes`` or a ``memoryview`` over an mmap'd block
    file) and decodes by offset arithmetic, so a ``memoryview`` is never
    copied wholesale.  With ``only`` given, arrays whose names are not in
    the set are *skipped without touching their bytes* — the catalog
    store's extents scan reads two tiny arrays out of a multi-megabyte
    payload this way.
    """
    view = memoryview(blob)
    (nkeys,) = struct.unpack_from("<I", view, 0)
    off = 4
    out: dict[str, np.ndarray] = {}
    for _ in range(nkeys):
        (klen,) = struct.unpack_from("<H", view, off)
        off += 2
        key = bytes(view[off : off + klen]).decode("utf-8")
        off += klen
        (blen,) = struct.unpack_from("<Q", view, off)
        off += 8
        if only is None or key in only:
            body = io.BytesIO(bytes(view[off : off + blen]))
            out[key] = np.load(body, allow_pickle=False)
        off += blen
    return out


# ----------------------------------------------------------------------
# collective write
# ----------------------------------------------------------------------
def write_blocks(
    path: str | os.PathLike,
    comm: Communicator,
    blocks: list[tuple[int, bytes]],
    nblocks_total: int | None = None,
) -> int:
    """Collectively write per-rank ``(gid, payload)`` blocks to one file.

    Every rank passes its own blocks.  One allreduce gives every rank each
    block's ``(gid, size, crc32)``; payloads are laid out in gid order, each
    rank writes its own at their offsets, and rank 0 writes the header,
    footer index, and trailer.

    The write is crash-consistent (see module docs): all bytes go to
    ``path + ".tmp"``, which rank 0 atomically renames over ``path`` only
    after every rank has written and fsynced.  A crash mid-write never
    clobbers an existing file at ``path``.

    Returns the total file size in bytes (valid on every rank).
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    # Rank 0 creates/truncates the *temp* file before anyone writes into it;
    # the destination stays untouched until the final atomic rename.  The
    # allreduce below cannot complete on any rank before rank 0 joins it,
    # so it also orders this truncation before every rank's writes.
    if comm.rank == 0:
        with open(tmp, "wb"):
            pass
    entries = sorted(
        comm.allreduce([(gid, len(b), zlib.crc32(b)) for gid, b in blocks])
    )
    nblocks = nblocks_total if nblocks_total is not None else len(entries)
    if len(entries) != nblocks:
        raise ValueError(f"expected {nblocks} blocks in file, wrote {len(entries)}")
    gids = [g for g, _, _ in entries]
    if gids != list(range(nblocks)):
        raise ValueError(f"block gids must be 0..{nblocks - 1}, got {gids}")
    offsets = list(accumulate((size for _, size, _ in entries), initial=HEADER_SIZE))
    footer_offset = offsets[-1]

    inj = faults.active()
    tear = inj.torn_write(comm.rank) if inj is not None else None

    fd = os.open(tmp, os.O_WRONLY)
    try:
        if tear is not None:
            # Injected fault: write a partial first payload, make it durable
            # (so the tear is really on disk), then crash this rank.
            if blocks:
                gid, payload = blocks[0]
                os.pwrite(fd, payload[: int(len(payload) * tear)], offsets[gid])
            os.fsync(fd)
            inj.crash_write(comm.rank)  # raises or os._exit; never returns
        for gid, payload in blocks:
            written = os.pwrite(fd, payload, offsets[gid])
            if written != len(payload):
                raise IOError(
                    f"short write for block {gid}: {written} of {len(payload)} bytes"
                )
        os.fsync(fd)
    finally:
        os.close(fd)
    comm.barrier()  # every payload is durable before the footer names it

    if comm.rank == 0:
        fd = os.open(tmp, os.O_WRONLY)
        try:
            os.pwrite(fd, _HEADER.pack(_MAGIC, _VERSION, nblocks), 0)
            footer = b"".join(
                _INDEX_ENTRY.pack(gid, off, size, crc)
                for (gid, size, crc), off in zip(entries, offsets)
            )
            os.pwrite(fd, footer, footer_offset)
            os.pwrite(
                fd,
                _TRAILER.pack(footer_offset, zlib.crc32(footer), _END_MAGIC),
                footer_offset + len(footer),
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        # Publish: atomic rename, then make the rename itself durable.
        os.replace(tmp, path)
        dirfd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)

    comm.barrier()
    return footer_offset + nblocks * _INDEX_ENTRY.size + _TRAILER.size


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _IndexEntry:
    gid: int
    offset: int
    size: int
    crc: int


class BlockFileReader:
    """Random-access reader for files produced by :func:`write_blocks`.

    Safe for concurrent use from multiple rank-threads (positioned reads on
    a private descriptor).  Supports reading any subset of blocks, which is
    how the postprocessing plugin's parallel reader divides work.

    The file structure is validated on open (magic, trailer end-marker,
    footer bounds, footer CRC32) and each payload's CRC32 is validated on
    :meth:`read_block`; torn or truncated files raise
    :class:`CheckpointError` with the path and the failing field.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        self._mmap: mmap.mmap | None = None
        try:
            self._load_index()
        except Exception:
            os.close(self._fd)
            raise

    def _load_index(self) -> None:
        file_size = os.fstat(self._fd).st_size
        if file_size < HEADER_SIZE:
            raise CheckpointError(
                f"{self.path}: truncated block file ({file_size} bytes, "
                f"header alone is {HEADER_SIZE})"
            )
        header = os.pread(self._fd, HEADER_SIZE, 0)
        magic, version, nblocks = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CheckpointError(
                f"{self.path}: not a DIY block file (magic {magic!r})"
            )
        if version != _VERSION:
            raise CheckpointError(f"{self.path}: unsupported version {version}")
        self.nblocks = int(nblocks)
        if file_size < HEADER_SIZE + _TRAILER.size:
            raise CheckpointError(
                f"{self.path}: truncated block file ({file_size} bytes)"
            )

        trailer = os.pread(self._fd, _TRAILER.size, file_size - _TRAILER.size)
        footer_offset, footer_crc, end_magic = _TRAILER.unpack(trailer)
        if end_magic != _END_MAGIC:
            raise CheckpointError(
                f"{self.path}: missing end-of-file marker (torn or "
                f"truncated write)"
            )
        footer_size = self.nblocks * _INDEX_ENTRY.size
        expected_size = footer_offset + footer_size + _TRAILER.size
        if footer_offset < HEADER_SIZE or expected_size != file_size:
            raise CheckpointError(
                f"{self.path}: footer index at {footer_offset} for "
                f"{self.nblocks} blocks implies {expected_size} bytes, file "
                f"has {file_size}"
            )
        footer = os.pread(self._fd, footer_size, footer_offset)
        if len(footer) != footer_size:
            raise CheckpointError(
                f"{self.path}: short footer read ({len(footer)} of "
                f"{footer_size} bytes)"
            )
        if zlib.crc32(footer) != footer_crc:
            raise CheckpointError(
                f"{self.path}: footer CRC mismatch (torn or corrupted write)"
            )
        self.file_size = int(file_size)
        # Content-derived identity of this file: the footer CRC covers every
        # payload's (gid, offset, size, crc32) record, so any change to any
        # block changes the tag.
        self.footer_crc = int(footer_crc)
        self._index: dict[int, _IndexEntry] = {}
        for gid, off, size, crc in _INDEX_ENTRY.iter_unpack(footer):
            if off < HEADER_SIZE or off + size > footer_offset:
                raise CheckpointError(
                    f"{self.path}: block {gid} spans [{off}, {off + size}) "
                    f"outside the payload region [{HEADER_SIZE}, "
                    f"{footer_offset})"
                )
            self._index[gid] = _IndexEntry(gid, off, size, crc)

    def __enter__(self) -> "BlockFileReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the mapping and file descriptor (idempotent).

        Any :meth:`read_block_view` memoryviews must be released (or their
        contents copied out) before closing.
        """
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None  # type: ignore[assignment]

    @property
    def content_tag(self) -> str:
        """ETag-style identity of the file contents.

        Derived from the footer CRC (which covers every block's payload
        CRC), the file size, and the block count — republishing a snapshot
        with different contents always changes the tag, while re-reading
        the same file always reproduces it.
        """
        return f"{self.nblocks:x}-{self.file_size:x}-{self.footer_crc:08x}"

    def read_block_view(self, gid: int, verify: bool = True) -> memoryview:
        """Zero-copy ``memoryview`` of block ``gid`` over an mmap'd file.

        The first call maps the whole file (pages fault in on demand, so a
        footer-directed scan of a few small arrays touches only those
        pages).  The view is valid until :meth:`close`.  ``verify`` checks
        the payload CRC — the catalog store does this once per cold read
        and serves cache hits without re-hashing.
        """
        try:
            entry = self._index[gid]
        except KeyError:
            raise KeyError(
                f"block {gid} not in file (0..{self.nblocks - 1})"
            ) from None
        if self._mmap is None:
            self._mmap = mmap.mmap(
                self._fd, self.file_size, prot=mmap.PROT_READ
            )
        view = memoryview(self._mmap)[entry.offset : entry.offset + entry.size]
        if verify and zlib.crc32(view) != entry.crc:
            raise CheckpointError(
                f"{self.path}: CRC mismatch for block {gid} (payload corrupted)"
            )
        return view

    def read_block(self, gid: int, verify: bool = True) -> bytes:
        """Raw payload bytes of block ``gid`` (CRC-checked unless ``verify``
        is False)."""
        try:
            entry = self._index[gid]
        except KeyError:
            raise KeyError(f"block {gid} not in file (0..{self.nblocks - 1})") from None
        blob = os.pread(self._fd, entry.size, entry.offset)
        if len(blob) != entry.size:
            raise CheckpointError(
                f"{self.path}: short read for block {gid} ({len(blob)} of "
                f"{entry.size} bytes)"
            )
        if verify and zlib.crc32(blob) != entry.crc:
            raise CheckpointError(
                f"{self.path}: CRC mismatch for block {gid} (payload corrupted)"
            )
        return blob

    def read_block_arrays(self, gid: int) -> dict[str, np.ndarray]:
        """Payload of block ``gid`` decoded with :func:`unpack_arrays`."""
        return unpack_arrays(self.read_block(gid))
