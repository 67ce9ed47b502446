"""Read-optimized catalog store over the blocked tess format.

A catalog is a directory of published tess snapshot files plus a
``catalog.json`` manifest mapping simulation steps to files.  Both halves
reuse the crash-consistency machinery the write path already has:

* snapshot files are the atomic-publish block files of
  :mod:`repro.diy.mpi_io` (CRC'd footer index, temp-file + fsync +
  ``os.replace``), so a snapshot is either fully there or not at all;
* the manifest itself is published the same way (temp + fsync + replace),
  so readers never observe a half-written catalog.

**ETag-style content versioning**: every snapshot's identity is its
file's :attr:`~repro.diy.mpi_io.BlockFileReader.content_tag` — derived
from the footer CRC, which covers every block payload's CRC.  Republishing
a step with different contents yields a different etag; the block cache
keys on ``(etag, gid)``, so stale cached blocks can never be served for
the new snapshot and are evicted on the next manifest refresh
(:meth:`~repro.serve.cache.BlockCache.evict_stale`).  The manifest carries
each snapshot's etag, and the catalog's own etag digests all of them, so
a client can long-poll ``GET /catalog`` with ``If-None-Match``.

Block payloads are addressed through the footer index over an mmap'd
file (:meth:`~repro.diy.mpi_io.BlockFileReader.read_block_view`): a cold
read CRC-checks and decodes one payload's pages; block extents for
region->gid mapping come from a partial scan that never touches the
geometry arrays (:func:`repro.core.tess_io.scan_block_extents`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass

from ..core.tess_io import block_from_payload, scan_block_extents
from ..diy.bounds import Bounds
from ..diy.mpi_io import BlockFileReader, CheckpointError

__all__ = ["SnapshotInfo", "Snapshot", "CatalogStore", "CatalogError"]

MANIFEST_NAME = "catalog.json"
_MANIFEST_VERSION = 1


class CatalogError(ValueError):
    """The catalog directory or a request against it is invalid; the
    message names the path or step that failed."""


@dataclass(frozen=True)
class SnapshotInfo:
    """One published snapshot as recorded in the manifest."""

    step: int
    path: str  # relative to the catalog root
    etag: str
    nblocks: int

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "path": self.path,
            "etag": self.etag,
            "nblocks": self.nblocks,
        }


class Snapshot:
    """An open snapshot: mmap'd reader plus its region index.

    Handles are cached by the store per ``(step, etag)`` and shared by
    concurrent readers — :class:`BlockFileReader` reads are positioned
    (no shared seek pointer) and the extents index is built once under a
    lock.
    """

    def __init__(self, info: SnapshotInfo, path: str):
        self.info = info
        self.reader = BlockFileReader(path)
        if self.reader.content_tag != info.etag:
            self.reader.close()
            raise CatalogError(
                f"{path}: content tag {self.reader.content_tag} does not "
                f"match manifest etag {info.etag} (torn republish?)"
            )
        self._lock = threading.Lock()
        self._extents: list[Bounds] | None = None
        self._domain: Bounds | None = None

    @property
    def etag(self) -> str:
        return self.info.etag

    @property
    def nblocks(self) -> int:
        return self.reader.nblocks

    def _index(self) -> tuple[list[Bounds], Bounds]:
        if self._extents is None:
            with self._lock:
                if self._extents is None:
                    self._extents, self._domain = scan_block_extents(
                        self.reader
                    )
        assert self._extents is not None and self._domain is not None
        return self._extents, self._domain

    @property
    def domain(self) -> Bounds:
        return self._index()[1]

    def gids_for_region(self, region: Bounds | None) -> list[int]:
        """Gids of blocks whose extents intersect ``region`` (all blocks
        for ``None``)."""
        extents, _ = self._index()
        if region is None:
            return list(range(len(extents)))
        return [g for g, ext in enumerate(extents) if ext.intersects(region)]

    def load_block(self, gid: int):
        """Cold-path loader: CRC-check, decode, and return
        ``(block, nbytes)`` — the shape :class:`~repro.serve.cache.BlockCache`
        loaders return.  ``nbytes`` is the decoded arrays' footprint, which
        is what actually occupies cache memory."""
        block, _ = block_from_payload(
            self.reader.read_block_view(gid), self.reader.path, gid
        )
        nbytes = sum(
            a.nbytes for a in block.to_arrays().values()
        )
        return block, nbytes

    def close(self) -> None:
        self.reader.close()


class CatalogStore:
    """Multi-snapshot catalog over a directory of tess block files."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._snapshots: dict[int, SnapshotInfo] = {}
        self._handles: dict[tuple[int, str], Snapshot] = {}
        self._manifest_stamp: tuple[float, int] | None = None
        os.makedirs(self.root, exist_ok=True)
        self.refresh(force=True)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def refresh(self, force: bool = False) -> bool:
        """Reload the manifest if it changed on disk; returns whether it
        did.  Cheap when unchanged (one ``stat``), so the server calls it
        per catalog-touching request."""
        try:
            st = os.stat(self._manifest_path)
            stamp = (st.st_mtime, st.st_size)
        except FileNotFoundError:
            stamp = None
        if not force and stamp == self._manifest_stamp:
            return False
        snapshots: dict[int, SnapshotInfo] = {}
        if stamp is not None:
            with open(self._manifest_path) as f:
                data = json.load(f)
            if data.get("version") != _MANIFEST_VERSION:
                raise CatalogError(
                    f"{self._manifest_path}: unsupported manifest version "
                    f"{data.get('version')}"
                )
            for rec in data.get("snapshots", []):
                info = SnapshotInfo(
                    step=int(rec["step"]),
                    path=str(rec["path"]),
                    etag=str(rec["etag"]),
                    nblocks=int(rec["nblocks"]),
                )
                snapshots[info.step] = info
        with self._lock:
            self._snapshots = snapshots
            self._manifest_stamp = stamp
            # Drop handles whose (step, etag) no longer matches the
            # manifest — a republished step gets a fresh mmap next access.
            live = {(i.step, i.etag) for i in snapshots.values()}
            for key in [k for k in self._handles if k not in live]:
                self._handles.pop(key).close()
        return True

    def _write_manifest(self) -> None:
        payload = {
            "version": _MANIFEST_VERSION,
            "snapshots": [
                self._snapshots[s].as_dict()
                for s in sorted(self._snapshots)
            ],
        }
        tmp = self._manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._manifest_path)
        st = os.stat(self._manifest_path)
        self._manifest_stamp = (st.st_mtime, st.st_size)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, step: int, tess) -> SnapshotInfo:
        """Write ``tess`` as the snapshot for ``step`` and commit it to
        the manifest.  Both writes are atomic; a republish of an existing
        step changes its etag (and thereby invalidates cached blocks)."""
        if isinstance(step, bool) or not isinstance(step, int) or step < 0:
            raise CatalogError(f"step must be an int >= 0, got {step!r}")
        rel = f"step-{step:06d}.tess"
        path = os.path.join(self.root, rel)
        tess.write(path)
        with BlockFileReader(path) as reader:
            info = SnapshotInfo(
                step=step,
                path=rel,
                etag=reader.content_tag,
                nblocks=reader.nblocks,
            )
        with self._lock:
            stale = self._snapshots.get(step)
            self._snapshots[step] = info
            if stale is not None:
                handle = self._handles.pop((step, stale.etag), None)
                if handle is not None:
                    handle.close()
            self._write_manifest()
        return info

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def steps(self) -> list[int]:
        with self._lock:
            return sorted(self._snapshots)

    def etags(self) -> set[str]:
        """Etags of every live snapshot (the cache's validity set)."""
        with self._lock:
            return {i.etag for i in self._snapshots.values()}

    def info(self, step: int) -> SnapshotInfo:
        with self._lock:
            try:
                return self._snapshots[step]
            except KeyError:
                raise CatalogError(
                    f"no snapshot for step {step}; catalog has "
                    f"{sorted(self._snapshots)}"
                ) from None

    def snapshot(self, step: int) -> Snapshot:
        """The (shared, cached) open handle for ``step``'s snapshot."""
        info = self.info(step)
        key = (step, info.etag)
        with self._lock:
            handle = self._handles.get(key)
            if handle is None:
                try:
                    handle = Snapshot(
                        info, os.path.join(self.root, info.path)
                    )
                except (OSError, CheckpointError) as exc:
                    raise CatalogError(
                        f"snapshot for step {step} unreadable: {exc}"
                    ) from exc
                self._handles[key] = handle
        return handle

    def manifest(self) -> dict:
        """JSON-able catalog listing plus the catalog-level etag."""
        with self._lock:
            snaps = [self._snapshots[s].as_dict() for s in sorted(self._snapshots)]
        digest = hashlib.sha256(
            json.dumps(snaps, sort_keys=True).encode()
        ).hexdigest()[:16]
        return {"etag": digest, "snapshots": snaps}

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()
