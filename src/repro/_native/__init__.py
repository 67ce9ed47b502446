"""On-demand compiled C kernels for the geometry hot path.

The Voronoi engine's work is one 3-D Delaunay triangulation per block
(or slab, or repair patch) and one pass from it to the diagram, whose
ring loops NumPy cannot fuse (~15 array passes).  Both live in
``voronoi_kernels.c``: an incremental Bowyer–Watson triangulation with
exact, filtered predicates and index-order tie-breaks
(:func:`triangulate`), and :meth:`Triangulation.cells`, every array of
the engine from the live triangulation in one call.  The file is
compiled on first use with whatever C compiler the host has
(``$CC``, else ``cc``/``gcc``/``clang``) — there is no build step and no
new dependency.  The build starts on a thread when this module is
imported, so the compiler runs while the importing program sets up, and
the first :func:`lib` call waits for what is left.  The shared object is
cached under ``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-native/``)
keyed by a hash of the source and the compiler, so every process after
the first just ``dlopen``s it.

The kernel is required: there is no second engine.  If no compiler is
found or compilation fails, :func:`lib` returns ``None``,
:func:`build_error` says why, and the first geometry call
(:func:`triangulate`) raises one ``RuntimeError`` that names the
compiler tried, ``CC``, the cache directory and the build failure.
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

__all__ = ["lib", "available", "build_error", "triangulate", "delaunay"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "voronoi_kernels.c")
_CFLAGS = ["-O3", "-fPIC", "-shared"]

_lib = None
_tried = False
_error: str | None = None
#: first use may come from several threads at once (a block's slabs): one
#: builds, the others wait for its answer instead of finding no kernel
#: meanwhile
_first_use = threading.Lock()


def _cache_dir() -> str:
    return os.environ.get("REPRO_NATIVE_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-native"
    )


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
    os.makedirs(_cache_dir(), exist_ok=True)
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

    dll.dt_build.argtypes = [f64, ctypes.c_int64, i64, ctypes.c_int64, i64]
    dll.dt_build.restype = ctypes.c_void_p
    dll.dt_fetch.argtypes = [ctypes.c_void_p, i64, i64, i64]
    dll.dt_fetch.restype = ctypes.c_int64
    dll.dt_free.argtypes = [ctypes.c_void_p]
    dll.dt_free.restype = None
    dll.dt_cells.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, f64, ctypes.c_double, ctypes.c_int,
        i64, i64, f64, i64, i64, i64, f64, f64, f64, u8, i64, i64, i64,
    ]
    dll.dt_cells.restype = ctypes.c_int
    return dll


def lib():
    """The loaded kernel library, or ``None`` if it could not be built."""
    global _lib, _tried, _error
    if not _tried:
        with _first_use:
            if not _tried:
                try:
                    _lib = _declare(_build())
                except Exception as exc:  # noqa: BLE001 - raised by triangulate()
                    _error = _unbuilt(exc)
                _tried = True
    return _lib


def _unbuilt(exc: Exception) -> str:
    """:func:`triangulate`'s error without the kernel: what was tried,
    where, and what broke."""
    failure = f"{type(exc).__name__}: {exc}"
    said = getattr(exc, "stderr", None)  # the compiler's own words
    if said:
        failure += "\n" + said.decode(errors="replace").strip()[-2000:]
    cc = os.environ.get("CC")
    return (
        "the compiled geometry kernel (repro/_native/voronoi_kernels.c) "
        "is required and could not be built.\n"
        f"  compiler tried: {_compiler() or 'none found'} "
        f"(CC={cc!r}; else cc, gcc, clang on PATH)\n"
        f"  cache directory: {_cache_dir()} "
        "(REPRO_NATIVE_CACHE, else ~/.cache/repro-native)\n"
        f"  build failure: {failure}\n"
        "Set CC to a working C compiler (or install one) and run again."
    )


def _build_in_background() -> None:
    """Start the first-use build now, on a thread: the compiler runs on
    another core while the caller's imports and set-up go on, and the
    first :func:`lib` call waits only for what is left of it.  Exit
    waits for the thread, so no half-built file is left behind."""
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


class Triangulation:
    """A Delaunay triangulation the compiled kernel holds: one
    :func:`triangulate` call, freed when its ``with`` block ends."""

    def __init__(self, dll, handle, points: np.ndarray, sizes: np.ndarray):
        self._dll, self._handle, self.points = dll, handle, points
        self._slots, self._duplicates = int(sizes[0]), int(sizes[1])

    def __enter__(self) -> "Triangulation":
        return self

    def __exit__(self, *exc) -> None:
        self._dll.dt_free(self._handle)

    def cells(self, owned, lo, hi, eps2: float, fixup) -> dict:
        """Every array of ``DelaunayVoronoi`` by name, from one kernel pass
        (``dt_cells``) over the rings of edges with an ``owned`` end (a
        mask, or ``None``), cells in ``[lo, hi]``, ring vertices merged
        within ``sqrt(eps2)``.  ``fixup(vertices, points, sorted_tets,
        bad)`` re-solves circumcenters the kernel could not (singular
        slivers) before it builds the rings."""
        n, slots = len(self.points), self._slots
        mask = None if owned is None or owned.all() else owned.astype(np.uint8)
        # bounds: m <= slots, R <= 2m (a ring has 3+ tets), entries <= 6m
        out = dict(
            _tets=np.empty((slots, 4), dtype=np.int64),
            _neighbors=np.empty((slots, 4), dtype=np.int64),
            vertices=np.empty((slots, 3)),
            ridge_sites=np.empty((2 * slots, 2), dtype=np.int64),
            ridge_offsets=np.empty(2 * slots + 1, dtype=np.int64),
            ridge_flat=np.empty(6 * slots, dtype=np.int64),
            ridge_areas=np.empty(2 * slots),
            volumes=np.empty(n),
            areas=np.empty(n),
            complete=np.empty(n, dtype=np.uint8),
            cell_ridges_offsets=np.empty(n + 1, dtype=np.int64),
            cell_ridges_flat=np.empty(4 * slots, dtype=np.int64),
        )
        sizes = np.zeros(5, dtype=np.int64)  # m, R, ring entries, dropped, merged
        args = (self._handle, None if mask is None else mask.ctypes.data,
                np.concatenate([lo, hi]).astype(np.float64), eps2)
        status = self._dll.dt_cells(*args, 0, *out.values(), sizes)
        if status == 1:
            vertices, tets = out["vertices"][: sizes[0]], out["_tets"][: sizes[0]]
            fixup(vertices, self.points, np.sort(tets, axis=1),
                  ~np.isfinite(vertices).all(axis=1))
            status = self._dll.dt_cells(*args, 1, *out.values(), sizes)
        if status:
            raise MemoryError("native Voronoi cells: out of memory")
        m, R, total, dropped, merged = (int(k) for k in sizes)
        for name, size in (("_tets", m), ("_neighbors", m), ("vertices", m),
                           ("ridge_sites", R), ("ridge_offsets", R + 1),
                           ("ridge_flat", total), ("ridge_areas", R),
                           ("cell_ridges_flat", 2 * R)):
            out[name] = out[name][:size]
        out["complete"] = out["complete"].view(bool)
        return dict(out, merged_sites=merged, degenerate_ridges_dropped=dropped)


def triangulate(points: np.ndarray) -> Triangulation | None:
    """Delaunay tetrahedralization of ``(n, 3)`` float64 points by the
    compiled Bowyer–Watson kernel (exact predicates, ties broken by
    index order), held by the kernel.  ``None`` when no four points are
    affinely independent; ``RuntimeError`` (:func:`build_error`'s
    account) when the kernel could not be built."""
    dll = lib()
    if dll is None:
        raise RuntimeError(_error)
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if len(pts) < 4:
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
    return Triangulation(dll, handle, pts, sizes)


def delaunay(points: np.ndarray):
    """The :func:`triangulate` tets as int64 ``(tets, neighbors,
    duplicates)``: every tet positively oriented, ``neighbors[t, k]``
    the tet opposite vertex ``k`` or -1 across a hull face,
    ``duplicates`` one ``(point, -1, representative)`` row per exact
    duplicate left out.  ``None`` when :func:`triangulate` is."""
    tri = triangulate(points)
    if tri is None:
        return None
    tets = np.empty((tri._slots, 4), dtype=np.int64)
    nbrs = np.empty((tri._slots, 4), dtype=np.int64)
    duplicates = np.empty((tri._duplicates, 3), dtype=np.int64)
    with tri:
        m = tri._dll.dt_fetch(tri._handle, tets, nbrs, duplicates)
    if m < 0:
        raise MemoryError("native Delaunay: out of memory")
    return tets[:m], nbrs[:m], duplicates


os.register_at_fork(after_in_child=_fresh_lock_after_fork)
_build_in_background()
