"""No row-wise ``np.unique`` under ``src/``.

``np.unique(rows, axis=0)`` views each row as one structured value and
sorts with numpy's generic comparator.  In the Minkowski vertex weld it
took 33 ms of a 54 ms ``minkowski_functionals`` call on the
``postprocess`` fixtures (three 4-block 16^3 snapshots, ~30 000 rows of
four int64 columns each); one ``np.lexsort`` over the same columns plus
a run-start mask gives the same rows and inverse in a fraction of that.
This walk fails, naming file and line, on any ``unique`` call that passes
``axis`` (by keyword or as the fifth positional argument), so the slow
form cannot come back unnoticed.  Stdlib only: it runs in the lint job.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: ``np.unique(ar, return_index, return_inverse, return_counts, axis)``
_AXIS_POSITION = 4


def row_uniques(source: str, filename: str = "<string>") -> list[int]:
    """Line numbers of ``<module>.unique(..., axis=...)`` calls in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and (
                any(kw.arg == "axis" for kw in node.keywords)
                or len(node.args) > _AXIS_POSITION
            )
        ):
            lines.append(node.lineno)
    return lines


def test_detector_flags_row_unique():
    assert row_uniques("np.unique(rows, axis=0, return_inverse=True)") == [1]
    assert row_uniques("numpy.unique(a, False, True, False, 0)") == [1]
    assert row_uniques("np.unique(keys, return_inverse=True)") == []


def test_no_row_unique_under_src():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in row_uniques(path.read_text(), str(path))
    ]
    assert not hits, (
        "row-wise np.unique(..., axis=...) is a generic-comparator sort; "
        f"use np.lexsort over the columns instead: {hits}"
    )
