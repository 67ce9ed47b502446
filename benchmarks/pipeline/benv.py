"""Measurement environment of the pipeline benchmark.

Stdlib only, so :func:`pin` can run before NumPy is first imported: the
BLAS/OpenMP thread pools read their environment variables once, at load
time, and a 2-core box timing 2 busy ranks must not also run 2 BLAS
threads per rank.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the checkout: ``benchmarks/pipeline/`` sits two levels below it
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
LAYERS_PATH = HERE / "layers.json"
#: everything the benchmark writes lives under these two (both ignored by
#: git): results/traces/scratch fixtures, and the compiled native kernel
OUT_DIR = ROOT / ".bench_out"
BUILD_DIR = ROOT / ".bench_build"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """Fix thread counts, point every child at ``src/``, and keep the
    native-kernel cache inside the checkout.  Call before importing NumPy
    or ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"pipeline benchmark: no program to measure at {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # The server subprocess and forked ranks import repro the same way.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cache = BUILD_DIR / "repro-native"
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(cache)
    OUT_DIR.mkdir(exist_ok=True)


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names and units."""
    with open(SPEC_PATH) as f:
        return json.load(f)


def load_layers() -> dict:
    """``layers.json``: which end-to-end metric each layer metric should
    move, the reference machine fingerprint, and the claim (none)."""
    with open(LAYERS_PATH) as f:
        return json.load(f)


def fingerprint(workdir: os.PathLike | str) -> dict:
    """Where and on what this run measured (recorded in every result)."""
    import numpy
    import scipy

    import repro._native as native

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workdir_fs": _filesystem_of(workdir),
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "native_available": bool(native.available()),
    }


def _filesystem_of(path: os.PathLike | str) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: ``ru_maxrss`` KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: int, field: str = "VmHWM") -> float:
    """``VmHWM``/``VmRSS`` of another process, in MiB (0.0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another process (``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            # comm may contain spaces; fields after the closing paren are fixed
            rest = f.read().rsplit(")", 1)[1].split()
        ticks = int(rest[11]) + int(rest[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
