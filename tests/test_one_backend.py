"""One execution backend: ranks are processes.

:func:`repro.diy.comm.run_parallel` runs a multi-rank region on forked
processes and a 1-rank region inline; there is no thread rank runner and
no backend to choose.  The AST walk below fails, naming file, function and
line, on any ``exec_backend`` name or string, on any ``backend=`` keyword
or ``backend`` parameter under ``src/repro``, and on a ``threading.Thread``
in ``diy/comm.py``.  The one exception is ``run_parallel``'s own
``backend`` parameter: a shim that accepts ``"process"`` at any rank count
and ``"thread"`` at 1 rank, for callers that still pass it.  The walk is
stdlib only, so it runs in the lint job; the shim's runtime check needs
the package and is skipped there.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one place a ``backend`` parameter may appear: ``(file, function)``.
SHIM = ("diy/comm.py", "run_parallel")


class _Knobs(ast.NodeVisitor):
    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.scope: list[str] = []
        self.hits: list[tuple[str, int, str]] = []

    def _hit(self, node: ast.AST, what: str) -> None:
        self.hits.append((".".join(self.scope) or "<module>", node.lineno, what))

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = _scoped

    def visit_FunctionDef(self, node) -> None:
        shim = (self.relpath, node.name) == SHIM and not self.scope
        self.scope.append(node.name)
        for arg in [*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs]:
            if arg.arg == "backend" and not shim:
                self._hit(arg, "backend parameter")
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg == "backend":
            self._hit(node.value, "backend= keyword")
        elif node.arg == "exec_backend":
            self._hit(node.value, "exec_backend")
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if node.arg == "exec_backend":
            self._hit(node, "exec_backend")

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "exec_backend":
            self._hit(node, "exec_backend")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "exec_backend":
            self._hit(node, "exec_backend")
        if (
            self.relpath == "diy/comm.py"
            and node.attr == "Thread"
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        ):
            self._hit(node, "threading.Thread")
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and (
            "exec_backend" in node.value or "exec-backend" in node.value
        ):
            self._hit(node, "exec_backend")


def backend_knobs(source: str, relpath: str = "x.py") -> list[tuple[str, int, str]]:
    """``(function, line, what)`` of every backend knob in ``source``."""
    knobs = _Knobs(relpath)
    knobs.visit(ast.parse(source, filename=relpath))
    return knobs.hits


def test_detector_flags_backend_knobs():
    assert backend_knobs("tessellate(pts, exec_backend='process')") == [
        ("<module>", 1, "exec_backend")
    ]
    assert backend_knobs("f(x, backend='process')") == [
        ("<module>", 1, "backend= keyword")
    ]
    assert backend_knobs("def run(cfg, backend='thread'):\n    pass") == [
        ("run", 1, "backend parameter")
    ]
    assert backend_knobs("def g(exec_backend):\n    return exec_backend") == [
        ("g", 1, "exec_backend"), ("g", 2, "exec_backend")
    ]
    assert backend_knobs("p.add_argument('--exec-backend')") == [
        ("<module>", 1, "exec_backend")
    ]
    assert backend_knobs("x = args.exec_backend") == [("<module>", 1, "exec_backend")]
    runner = "import threading\nt = threading.Thread(target=f)"
    assert backend_knobs(runner, "diy/comm.py") == [
        ("<module>", 2, "threading.Thread")
    ]
    # The shim: run_parallel's own parameter in diy/comm.py, nowhere else.
    shim = "def run_parallel(n, f, backend='process'):\n    return backend"
    assert backend_knobs(shim, "diy/comm.py") == []
    assert backend_knobs(shim, "core/tessellate.py") == [
        ("run_parallel", 1, "backend parameter")
    ]
    # ... and callers may not pass it.
    assert backend_knobs("run_parallel(2, f, backend='process')", "diy/comm.py") == [
        ("<module>", 1, "backend= keyword")
    ]


def test_no_backend_knob_under_src():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line} ({where}: {what})"
        for path in sorted(SRC.rglob("*.py"))
        for where, line, what in backend_knobs(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert not hits, (
        "ranks are processes: there is no execution backend to choose, and "
        "run_parallel's backend= shim is for callers outside src/ only: "
        f"{hits}"
    )


def test_shim_rejects_every_other_backend():
    comm = pytest.importorskip("repro.diy.comm")
    for nranks, backend in [(2, "thread"), (2, "mpi"), (1, "mpi")]:
        with pytest.raises(ValueError, match="ranks are processes"):
            comm.run_parallel(nranks, len, backend=backend)
