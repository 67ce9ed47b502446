"""The Minkowski vertex weld against numpy's row-wise ``np.unique``.

:func:`repro.analysis.minkowski._weld` turns ``(component, qx, qy, qz)``
int64 rows into distinct rows (``welded``) and per-row ids (``vid``) with
one ``np.lexsort``.  Every later step of the kernel (edge keys, the
vertex count of chi) reads those ids, so they must equal the oracle's
element for element, not merely up to relabelling: the rows in
lexicographic order and the same inverse.  The cases cover what the
kernel feeds it — no rows, one row, one repeated vertex, ties in the
leading columns, negative keys on non-periodic axes, keys at ``0`` and
``wrap - 1`` on periodic ones, and sparse component ids.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.minkowski import _weld

from .minkowski_reference import weld_reference

#: periodic key modulus of a 16-unit box at the 1e-8 welding resolution
WRAP = 16 * 10**8


def _rows(data) -> np.ndarray:
    return np.asarray(data, dtype=np.int64).reshape(-1, 4)


def _assert_matches_oracle(rows: np.ndarray) -> None:
    welded, vid = _weld(rows)
    want_welded, want_vid = weld_reference(rows)
    assert welded.dtype == np.int64 and welded.shape == want_welded.shape
    assert np.array_equal(welded, want_welded)
    assert vid.shape == (len(rows),)
    assert np.array_equal(vid, want_vid)
    assert np.array_equal(welded[vid], rows)


CASES = {
    "empty": [],
    "one_row": [[0, 5, -7, 9]],
    "all_equal": [[3, 1, 2, 3]] * 6,
    "leading_ties": [
        [1, 5, 0, 3],
        [1, 5, 0, -2],
        [1, 5, 2, 3],
        [1, 5, 0, 3],
        [1, 4, 9, 9],
        [0, 5, 0, 3],
        [1, 5, 0, 1],
    ],
    "negative_keys": [
        [0, -(10**9), 5, -1],
        [0, -1, -(10**9), 0],
        [0, -(10**9), 5, -1],
        [0, 0, 0, 0],
        [0, -(10**9), 5, -2],
        [0, -3, 2**40, -(2**40)],
    ],
    "periodic_extremes": [
        [2, 0, WRAP - 1, 0],
        [2, WRAP - 1, 0, WRAP - 1],
        [2, 0, 0, 0],
        [2, WRAP - 1, WRAP - 1, WRAP - 1],
        [2, 0, WRAP - 1, 0],
        [1, WRAP - 1, 0, 0],
    ],
    "sparse_components": [
        [42, 1, 1, 1],
        [7, 1, 1, 1],
        [0, 1, 1, 1],
        [7, 1, 1, 1],
        [1000003, 0, 0, 0],
        [42, 1, 1, 0],
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_explicit_cases(name):
    _assert_matches_oracle(_rows(CASES[name]))


#: few distinct values per column, so rows collide and columns tie
_KEYS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0, WRAP - 1, -WRAP, -(2**62), 2**62]),
)
_ROWS = st.lists(
    st.tuples(st.sampled_from([0, 3, 4, 17, 99]), _KEYS, _KEYS, _KEYS),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_ROWS)
def test_random_rows(data):
    _assert_matches_oracle(_rows(data))
