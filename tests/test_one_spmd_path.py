"""One SPMD path at every rank count under ``insitu/`` and ``hacc/``.

A serial run is the 1-rank run: the tools, the simulation and the
checkpoint writer always hold a communicator, and ``comm=None`` is turned
into :meth:`~repro.diy.comm.Communicator.one_rank` once, at the public
entry points.  A serial fork (``comm is None``, ``comm is not None``,
``comm if comm.size > 1 else None``, ``comm.size == 1``) duplicates a path
the 1-rank communicator already takes, so this walk fails, naming file,
function and line, on any such comparison, except the one normalising
line ``comm = Communicator.one_rank() if comm is None else comm`` in each
entry point below.  Stdlib only: it runs in the lint job.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = ("insitu", "hacc")

#: Public entry points that keep ``comm=None`` for their callers and turn
#: it into the 1-rank communicator in one line.
ENTRY_POINTS = {
    "HACCSimulation.__init__",
    "CosmologyToolsFramework.run",
    "run_with_recovery",
    "write_checkpoint",
    "restart_simulation",
}


def _is_comm(node: ast.AST) -> bool:
    """``comm``, or any ``<expr>.comm`` attribute."""
    return (isinstance(node, ast.Name) and node.id == "comm") or (
        isinstance(node, ast.Attribute) and node.attr == "comm"
    )


def _is_const(node: ast.AST, value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _is_fork(node: ast.Compare) -> bool:
    """``comm is [not] None`` or ``<comm>.size <op> 1``, either way round."""
    for left, op, right in zip([node.left, *node.comparators], node.ops,
                               node.comparators):
        for a, b in ((left, right), (right, left)):
            if (
                isinstance(op, (ast.Is, ast.IsNot))
                and _is_comm(a)
                and _is_const(b, None)
            ):
                return True
            if (
                isinstance(a, ast.Attribute)
                and a.attr == "size"
                and _is_comm(a.value)
                and isinstance(b, ast.Constant)
                and b.value == 1
            ):
                return True
    return False


def _is_normaliser(node: ast.IfExp) -> bool:
    """``Communicator.one_rank() if comm is None else comm``."""
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.left, ast.Name)
        and test.left.id == "comm"
        and _is_const(test.comparators[0], None)
        and isinstance(node.body, ast.Call)
        and isinstance(node.body.func, ast.Attribute)
        and node.body.func.attr == "one_rank"
        and isinstance(node.orelse, ast.Name)
        and node.orelse.id == "comm"
    )


class _Forks(ast.NodeVisitor):
    def __init__(self) -> None:
        self.scope: list[str] = []
        self.normalisers: dict[str, int] = {}
        self.hits: list[tuple[str, int]] = []

    def _scoped(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_IfExp(self, node: ast.IfExp) -> None:
        where = ".".join(self.scope)
        if _is_normaliser(node) and where in ENTRY_POINTS:
            self.normalisers[where] = self.normalisers.get(where, 0) + 1
            if self.normalisers[where] == 1:
                self.visit(node.body)
                self.visit(node.orelse)
                return
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if _is_fork(node):
            self.hits.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def serial_forks(source: str, filename: str = "<string>") -> list[tuple[str, int]]:
    """``(function, line)`` of every serial fork in ``source``."""
    forks = _Forks()
    forks.visit(ast.parse(source, filename=filename))
    return forks.hits


def test_detector_flags_serial_forks():
    assert serial_forks("if comm is None:\n    pass") == [("<module>", 1)]
    assert serial_forks("def f(sim):\n    return sim.comm is not None") == [
        ("f", 2)
    ]
    assert serial_forks("x = comm if comm.size > 1 else None") == [
        ("<module>", 1)
    ]
    assert serial_forks("ok = 1 == comm.size") == [("<module>", 1)]
    assert serial_forks("n = comm.size\nr = comm.rank == 0") == []
    normalise = "comm = Communicator.one_rank() if comm is None else comm\n"
    assert serial_forks(f"def run_with_recovery(comm):\n    {normalise}") == []
    # Only the named entry points may normalise, and only once each.
    assert serial_forks(f"def helper(comm):\n    {normalise}") == [("helper", 2)]
    twice = f"def write_checkpoint(comm):\n    {normalise}    {normalise}"
    assert serial_forks(twice) == [("write_checkpoint", 3)]


def test_no_serial_fork_under_insitu_and_hacc():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line} ({where})"
        for package in GUARDED
        for path in sorted((SRC / package).rglob("*.py"))
        for where, line in serial_forks(path.read_text(), str(path))
    ]
    assert not hits, (
        "a serial run is the 1-rank run: take the communicator's path at "
        "every rank count, and turn comm=None into Communicator.one_rank() "
        f"only in the public entry points {sorted(ENTRY_POINTS)}: {hits}"
    )
