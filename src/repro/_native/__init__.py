"""On-demand compiled C kernels for the geometry hot path.

The Voronoi engine's work is one 3-D Delaunay triangulation per block
(or slab, or repair patch) and per-ring loops NumPy cannot fuse (gather
-> project -> sort -> dedup -> Newell is ~15 array passes over ~6 ring
entries per ridge).  Both live in ``voronoi_kernels.c``: an incremental
Bowyer–Watson triangulation with exact, filtered predicates and
index-order tie-breaks (:func:`delaunay`), and the circumcenter, ring
and CSR loops.  The file is compiled on first use with whatever C
compiler the host has (``cc``/``gcc``/``clang``) — there is no build
step and no new dependency.  The build starts on a thread when this
module is imported, so the compiler runs while the importing program
sets up, and the first :func:`lib` call waits for what is left.  The
shared object is cached under ``~/.cache/repro-native/`` keyed by a hash
of the source and the compiler, so every process after the first just
``dlopen``s it.

Everything degrades gracefully: if no compiler is found, compilation
fails, or ``REPRO_NO_NATIVE=1`` is set, :func:`lib` returns ``None``
and callers take their equivalent paths — qhull (``scipy.spatial``) for
the triangulation, NumPy for the loops (the parity tests cover both).
This module must never raise at import time.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = ["lib", "available", "build_error", "delaunay"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "voronoi_kernels.c")
_CFLAGS = ["-O3", "-fPIC", "-shared"]

_lib = None
_tried = False
_error: str | None = None
#: first use may come from several threads at once (a block's slabs): one
#: builds, the others wait for its answer instead of taking the NumPy path
#: meanwhile
_first_use = threading.Lock()


def _cache_dir() -> str:
    root = os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-native"
    )
    os.makedirs(root, exist_ok=True)
    return root


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build() -> ctypes.CDLL:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set CC or install gcc)")
    with open(_SOURCE, "rb") as f:
        src = f.read()
    key = hashlib.sha256(
        src + cc.encode() + " ".join(_CFLAGS).encode()
    ).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"voronoi_kernels-{key}.so")
    if not os.path.exists(so_path):
        # Build into a temp file and rename into place: atomic on POSIX,
        # so concurrent first-use ranks cannot dlopen a half-written .so.
        fd, tmp = tempfile.mkstemp(
            suffix=".so", dir=os.path.dirname(so_path)
        )
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, _SOURCE, "-o", tmp, "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so_path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return ctypes.CDLL(so_path)


def _declare(dll: ctypes.CDLL) -> ctypes.CDLL:
    f64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")

    dll.tet_circumcenters.argtypes = [f64, i64, ctypes.c_int64, f64]
    dll.tet_circumcenters.restype = ctypes.c_int64

    dll.order_rings.argtypes = [
        f64, f64, i64, i64, i64, ctypes.c_int64, ctypes.c_double,
        i64, i64, f64, u8,
    ]
    dll.order_rings.restype = ctypes.c_int64

    dll.fill_cell_ridges.argtypes = [i64, ctypes.c_int64, i64, i64]
    dll.fill_cell_ridges.restype = None

    i32 = np.ctypeslib.ndpointer(dtype=np.int32, flags="C_CONTIGUOUS")
    dll.dt_build.argtypes = [f64, ctypes.c_int64, i64, ctypes.c_int64, i64]
    dll.dt_build.restype = ctypes.c_void_p
    dll.dt_fetch.argtypes = [ctypes.c_void_p, i32, i32, i64]
    dll.dt_fetch.restype = None
    dll.dt_free.argtypes = [ctypes.c_void_p]
    dll.dt_free.restype = None
    return dll


def lib():
    """The loaded kernel library, or ``None`` if unavailable."""
    global _lib, _tried, _error
    if not _tried:
        with _first_use:
            if not _tried:
                if os.environ.get("REPRO_NO_NATIVE"):
                    _error = "disabled by REPRO_NO_NATIVE"
                else:
                    try:
                        _lib = _declare(_build())
                    except Exception as exc:  # noqa: BLE001 - fallback by design
                        _error = f"{type(exc).__name__}: {exc}"
                _tried = True
    return _lib


def _build_in_background() -> None:
    """Start the first-use build now, on a thread: the compiler runs on
    another core while the caller's imports and set-up go on, and the
    first :func:`lib` call waits only for what is left of it.  Exit
    waits for the thread, so no half-built file is left behind."""
    if os.environ.get("REPRO_NO_NATIVE"):
        return
    builder = threading.Thread(target=lib, name="repro-native-build",
                               daemon=True)
    try:
        builder.start()
    except RuntimeError:  # no thread to spare: the first lib() builds
        return
    atexit.register(builder.join)


def _fresh_lock_after_fork() -> None:
    # A fork while the build thread holds the lock must not leave the
    # child waiting for a thread it does not have: the child gets a new
    # lock, and its first lib() dlopens the cached file or builds it.
    global _first_use
    _first_use = threading.Lock()


def available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    return lib() is not None


def build_error() -> str | None:
    """Why the kernels are unavailable (``None`` when they loaded)."""
    lib()
    return _error


def _insertion_order(pts: np.ndarray) -> np.ndarray:
    """BRIO (Amenta, Choi and Rote 2003): round ``r`` of ``R`` holds about
    ``n / 2**(R - r)`` points, each round in Morton order.  A point's
    round comes from a hash of its coordinates, so the order is the same
    on every run, and exact duplicates share a key: a stable sort puts
    the lowest index of each duplicate set first."""
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    cells = (pts - lo) / np.where(span > 0, span, 1.0) * 65535.0
    code = np.zeros(len(pts), dtype=np.uint64)
    for axis in range(3):  # 16 bits per axis, interleaved
        x = cells[:, axis].astype(np.uint64)
        for shift, mask in _SPREAD:
            x = (x | (x << np.uint64(shift))) & np.uint64(mask)
        code |= x << np.uint64(axis)
    bits = np.ascontiguousarray(pts + 0.0).view(np.uint64)  # -0.0 as 0.0
    h = np.full(len(pts), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for axis in range(3):
        h = (h ^ bits[:, axis]) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(29)
    rounds = max(0, int(np.ceil(np.log2(max(len(pts), 1) / 64.0))))
    # round R - min(trailing zero bits of h, R): P(round <= R - r) = 2**-r
    late = np.full(len(pts), rounds, dtype=np.uint64)
    zeros = np.ones(len(pts), dtype=bool)
    for r in range(rounds):
        zeros &= (h >> np.uint64(r)) & np.uint64(1) == 0
        late -= zeros
    return np.argsort((late << np.uint64(48)) | code, kind="stable")


_SPREAD = ((16, 0x0000FF0000FF), (8, 0x00F00F00F00F),
           (4, 0x0C30C30C30C3), (2, 0x249249249249))


def delaunay(points: np.ndarray):
    """Delaunay tetrahedralization of ``(n, 3)`` float64 points by the
    compiled Bowyer–Watson kernel (exact predicates, ties broken by
    index order): int64 ``(tets, neighbors, duplicates)``, every tet
    positively oriented, ``neighbors[t, k]`` the tet opposite vertex
    ``k`` or -1 across a hull face, ``duplicates`` one ``(point, -1,
    representative)`` row per exact duplicate left out.  ``None`` when
    no four points are affinely independent (or the kernel is not
    built)."""
    dll = lib()
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if dll is None or len(pts) < 4:
        return None
    if len(pts) >= 2**28:  # tet ids are int32
        raise ValueError(f"native Delaunay: {len(pts)} points is too many")
    order = _insertion_order(pts)
    sizes = np.zeros(3, dtype=np.int64)
    cap = 8 * len(pts) + 64  # ~6.7 finite tets per point, and the hull
    while True:
        handle = dll.dt_build(pts, len(pts), order, cap, sizes)
        if sizes[2] != 3:
            break
        cap *= 4  # a triangulation that is not linear in n: try again
    if not handle:
        if sizes[2] == 1:
            return None
        if sizes[2] == -1:
            raise MemoryError("native Delaunay: out of memory")
        raise RuntimeError("native Delaunay: a point-location walk did not end")
    try:
        verts = np.empty((sizes[0], 4), dtype=np.int32)
        nbrs = np.empty((sizes[0], 4), dtype=np.int32)
        dups = np.empty((sizes[1], 2), dtype=np.int64)
        dll.dt_fetch(handle, verts, nbrs, dups)
    finally:
        dll.dt_free(handle)
    # keep the live finite tets (a deleted slot has vertex -2, an
    # infinite tet vertex -1), renumbered in slot order
    finite = (verts >= 0).all(axis=1)
    number = np.full(len(verts), -1, dtype=np.int64)
    number[finite] = np.arange(int(finite.sum()))
    duplicates = np.full((len(dups), 3), -1, dtype=np.int64)
    duplicates[:, 0] = dups[:, 0]
    duplicates[:, 2] = dups[:, 1]
    return verts[finite].astype(np.int64), number[nbrs[finite]], duplicates


os.register_at_fork(after_in_child=_fresh_lock_after_fork)
_build_in_background()
