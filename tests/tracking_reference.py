"""The dict-based overlap count, kept as the tracking parity reference.

:func:`overlap_matrix_dict` is the per-cell loop that
:func:`repro.analysis.tracking.overlap_matrix` replaced with one sorted
join and a pair count: a ``dict`` from site id to label for the later
step, probed once per cell of the earlier one.  It shares no code with
the flat kernel.  Nothing under ``src/`` can select it; the parity suite
(``tests/test_analysis_tracking_parity.py``) asserts the flat kernel, and
every tree built on it, reproduce it.
"""

import numpy as np

from repro.analysis.components import ComponentLabeling


def overlap_matrix_dict(
    a: ComponentLabeling, b: ComponentLabeling
) -> dict[tuple[int, int], int]:
    """Shared-cell count per ``(label_a, label_b)`` pair that overlaps."""
    bmap = b.label_of()
    out: dict[tuple[int, int], int] = {}
    for sid, la in zip(a.site_ids.tolist(), a.labels.tolist()):
        lb = bmap.get(sid)
        if lb is not None:
            key = (int(la), int(lb))
            out[key] = out.get(key, 0) + 1
    return out


def overlap_arrays_dict(
    a: ComponentLabeling, b: ComponentLabeling
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`overlap_matrix_dict` in the flat kernel's return form:
    aligned ``(labels_a, labels_b, counts)`` in ``(la, lb)`` order."""
    matrix = overlap_matrix_dict(a, b)
    keys = sorted(matrix)
    return (
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([matrix[k] for k in keys], dtype=np.int64),
    )
