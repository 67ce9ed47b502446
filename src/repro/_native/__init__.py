"""On-demand compiled C kernels for hot geometry loops.

NumPy cannot fuse the per-ring work of the Delaunay-direct Voronoi
engine (gather -> project -> sort -> dedup -> Newell is ~15 array
passes over ~6 ring entries per ridge), so the inner loops live in
``voronoi_kernels.c`` and are compiled *on first use* with whatever C
compiler the host has (``cc``/``gcc``/``clang``) — there is no build
step and no new dependency.  The shared object is cached under
``~/.cache/repro-native/`` keyed by a hash of the source and the
compiler, so every process after the first just ``dlopen``s it.

Everything degrades gracefully: if no compiler is found, compilation
fails, or ``REPRO_NO_NATIVE=1`` is set, :func:`lib` returns ``None``
and callers take their equivalent NumPy paths (the parity tests cover
both).  This module must never raise at import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = ["lib", "available", "build_error"]

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


def available() -> bool:
    """Whether the compiled kernels can be used in this process."""
    return lib() is not None


def build_error() -> str | None:
    """Why the kernels are unavailable (``None`` when they loaded)."""
    lib()
    return _error
