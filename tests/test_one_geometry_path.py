"""One geometry path: the compiled kernel is the only engine.

:class:`repro.geometry.voronoi_delaunay.DelaunayVoronoi` triangulates
with :func:`repro._native.triangulate` and takes its cells from the same
handle; without the kernel the first geometry call raises.  The NumPy
cells path lives in ``tests/voronoi_cells_reference.py`` as the oracle.
The walk below fails, naming file and line, on any of:

* the string ``REPRO_NO_NATIVE`` anywhere under ``src/`` (the switch that
  turned the kernel off);
* any ``scipy.spatial`` import or attribute (``Delaunay``, ``QhullError``,
  ``cKDTree``, ``ConvexHull``, ...) in ``geometry/voronoi_delaunay.py``
  or ``core/tessellate.py`` (a second geometry engine beside the
  kernel's triangulation, which also certifies and repairs the thin
  pass);
* a ``_native.lib()`` compared with ``None`` outside ``repro/_native/``
  (a caller choosing its own path when the kernel is missing).

It is stdlib only, so it runs in the lint job.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ENGINE = "repro/geometry/voronoi_delaunay.py"
#: the modules that compute a block's cells: the kernel is their only
#: geometry
KERNEL_ONLY = {ENGINE, "repro/core/tessellate.py"}


class _Forks(ast.NodeVisitor):
    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.hits: list[tuple[int, str]] = []

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            name = f"{module}.{alias.name}"
            if self.relpath in KERNEL_ONLY and _spatial(name):
                self.hits.append((node.lineno, name))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if self.relpath in KERNEL_ONLY and _spatial(alias.name):
                self.hits.append((node.lineno, alias.name))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = _dotted(node)
        if self.relpath in KERNEL_ONLY and name and _spatial(name):
            self.hits.append((node.lineno, name))
            return
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        sides = [node.left, *node.comparators]
        if (
            not self.relpath.startswith("repro/_native/")
            and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    for op in node.ops)
            and any(isinstance(s, ast.Constant) and s.value is None for s in sides)
            and any(_is_lib_call(s) for s in sides)
        ):
            self.hits.append((node.lineno, "_native.lib() tested against None"))
        self.generic_visit(node)


def _spatial(name: str) -> bool:
    return name == "scipy.spatial" or name.startswith("scipy.spatial.")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _is_lib_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lib"
        and isinstance(node.func.value, (ast.Name, ast.Attribute))
        and (getattr(node.func.value, "id", None)
             or getattr(node.func.value, "attr", "")).endswith("_native")
    )


def geometry_forks(source: str, relpath: str = "x.py") -> list[tuple[int, str]]:
    """``(line, what)`` of every second geometry path in ``source``."""
    hits = [
        (n, "REPRO_NO_NATIVE")
        for n, line in enumerate(source.splitlines(), 1)
        if "REPRO_NO_NATIVE" in line
    ]
    if relpath.endswith(".py"):
        forks = _Forks(relpath)
        forks.visit(ast.parse(source, filename=relpath))
        hits += forks.hits
    return sorted(hits)


def test_detector_flags_second_paths():
    assert geometry_forks('os.environ.get("REPRO_NO_NATIVE")') == [
        (1, "REPRO_NO_NATIVE")
    ]
    assert geometry_forks("/* REPRO_NO_NATIVE */", "repro/_native/k.c") == [
        (1, "REPRO_NO_NATIVE")
    ]
    qhull = "from scipy.spatial import Delaunay, QhullError, cKDTree"
    assert geometry_forks(qhull, ENGINE) == [
        (1, "scipy.spatial.Delaunay"), (1, "scipy.spatial.QhullError"),
        (1, "scipy.spatial.cKDTree"),
    ]
    assert geometry_forks("tri = scipy.spatial.Delaunay(p)", ENGINE) == [
        (1, "scipy.spatial.Delaunay")
    ]
    # the tessellation's certificate and repair have no KD-tree or hull
    # of their own either, however they are imported
    tess = "repro/core/tessellate.py"
    for source, what in (
        ("from scipy.spatial import ConvexHull", "scipy.spatial.ConvexHull"),
        ("import scipy.spatial", "scipy.spatial"),
        ("from scipy import spatial", "scipy.spatial"),
        ("t = scipy.spatial.cKDTree(p)", "scipy.spatial.cKDTree"),
    ):
        assert geometry_forks("\n" + source, tess) == [(2, what)], source
    # scipy.spatial stays fine elsewhere (the benchmark probe, the tests'
    # oracle parity, DTFE)
    assert geometry_forks(qhull, "repro/analysis/dtfe.py") == []
    fork = "native = _native.lib() is not None\nif repro._native.lib() is None:\n    pass"
    assert geometry_forks(fork, "repro/core/tessellate.py") == [
        (1, "_native.lib() tested against None"),
        (2, "_native.lib() tested against None"),
    ]
    # the loader itself answers available() that way
    assert geometry_forks(fork, "repro/_native/__init__.py") == []
    assert geometry_forks("tri = _native.triangulate(pts)", ENGINE) == []


def test_one_geometry_path_under_src():
    hits = [
        f"{path.relative_to(SRC)}:{line} ({what})"
        for path in sorted(SRC.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and not any(part.endswith(".egg-info") for part in path.parts)
        for line, what in geometry_forks(
            path.read_bytes().decode(errors="replace"),
            path.relative_to(SRC).as_posix(),
        )
    ]
    assert not hits, (
        "the compiled kernel is the one geometry engine: no switch to turn "
        "it off, no scipy.spatial in the engine or the tessellation, no "
        f"caller-side fallback when it is missing: {hits}"
    )
