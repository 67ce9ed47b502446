"""Object-based tracking references, kept as the parity oracles.

:func:`overlap_matrix_dict` is the per-cell loop that
:func:`repro.analysis.tracking.overlap_matrix` replaced with one sorted
join and a pair count: a ``dict`` from site id to label for the later
step, probed once per cell of the earlier one.  It shares no code with
the flat kernel.

:class:`ReferenceTreeBuilder` is the feature-tree builder the column
builder replaced: ``FeatureEvent`` / ``FeatureTrack`` objects emitted by
per-component loops, packed into the on-disk arrays by per-event loops.
It links on the dict overlap, so it shares no tracking code with
``src/``.  Nothing under ``src/`` can select either; the parity suite
(``tests/test_analysis_tracking_parity.py``) asserts that the production
kernel, builder and every tree built on them reproduce these key for key.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.components import ComponentLabeling

EVENT_KINDS = ("continuation", "merge", "split", "birth", "death")


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


@dataclass(frozen=True)
class FeatureEvent:
    """One labeled transition between consecutive steps."""

    kind: str
    step_from: int
    step_to: int
    labels_from: tuple[int, ...]
    labels_to: tuple[int, ...]
    shared_cells: int


@dataclass
class FeatureTrack:
    """A single feature followed through time (largest-overlap chain)."""

    steps: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    volumes: list[float] = field(default_factory=list)


class ReferenceTreeBuilder:
    """The object-based feature-tree builder, one labeling per push."""

    def __init__(self, min_overlap: int = 1) -> None:
        self.min_overlap = int(min_overlap)
        self.steps: list[int] = []
        self.events: list[FeatureEvent] = []
        self.tracks: list[FeatureTrack] = []
        self.head: dict[int, int] = {}  # label at last step -> track index
        self.prev: ComponentLabeling | None = None
        self.with_volumes: bool | None = None

    def push(self, step, labeling, volumes=None) -> None:
        step = int(step)
        if self.with_volumes is None:
            self.with_volumes = volumes is not None
        sizes = labeling.sizes()
        if self.prev is None:
            self.head = {
                y: self._start_track(step, y, sizes, volumes)
                for y in range(labeling.num_components)
            }
        else:
            self._link(step, labeling, sizes, volumes)
        self.steps.append(step)
        self.prev = labeling

    def _start_track(self, step, label, sizes, volumes) -> int:
        track = FeatureTrack(
            steps=[step], labels=[int(label)], sizes=[int(sizes[label])]
        )
        if volumes is not None:
            track.volumes.append(float(volumes[label]))
        self.tracks.append(track)
        return len(self.tracks) - 1

    def _link(self, step, b, sizes_b, volumes_b) -> None:
        a = self.prev
        prev_step = self.steps[-1]
        la, lb, n = overlap_arrays_dict(a, b)
        keep = n >= self.min_overlap
        la, lb, n = la[keep], lb[keep], n[keep]
        na, nb = a.num_components, b.num_components
        kids_of = np.bincount(la, minlength=na)
        pars_of = np.bincount(lb, minlength=nb)
        shared_a = np.zeros(na, dtype=np.int64)
        np.add.at(shared_a, la, n)
        shared_b = np.zeros(nb, dtype=np.int64)
        np.add.at(shared_b, lb, n)
        a_bounds = np.searchsorted(la, np.arange(na + 1))
        order_b = np.lexsort((la, lb))
        b_bounds = np.searchsorted(lb[order_b], np.arange(nb + 1))

        def emit(kind, frm, to, shared):
            self.events.append(
                FeatureEvent(kind, prev_step, step, frm, to, int(shared))
            )

        for x in range(na):
            k = int(kids_of[x])
            if k == 0:
                emit("death", (x,), (), 0)
            elif k > 1:
                kids = lb[a_bounds[x] : a_bounds[x + 1]]
                emit("split", (x,), tuple(int(v) for v in kids), shared_a[x])
        for y in range(nb):
            p = int(pars_of[y])
            group = order_b[b_bounds[y] : b_bounds[y + 1]]
            if p == 0:
                emit("birth", (), (y,), 0)
            elif p > 1:
                emit(
                    "merge", tuple(int(v) for v in la[group]), (y,),
                    shared_b[y],
                )
            elif int(kids_of[la[group[0]]]) == 1:
                emit("continuation", (int(la[group[0]]),), (y,), n[group[0]])

        # Each parent nominates its largest-overlap child (ties: smaller
        # child label); a child nominated by several parents is claimed by
        # the largest-overlap parent (ties: smaller parent label).
        new_head: dict[int, int] = {}
        if len(la):
            order_best = np.lexsort((lb, -n, la))
            la_sorted = la[order_best]
            first = np.ones(len(la_sorted), dtype=bool)
            first[1:] = la_sorted[1:] != la_sorted[:-1]
            chosen = order_best[first]
            cla, clb, cn = la[chosen], lb[chosen], n[chosen]
            order_claim = np.lexsort((cla, -cn, clb))
            clb_sorted = clb[order_claim]
            firstc = np.ones(len(clb_sorted), dtype=bool)
            firstc[1:] = clb_sorted[1:] != clb_sorted[:-1]
            for w in order_claim[firstc]:
                x, y = int(cla[w]), int(clb[w])
                ti = self.head[x]
                track = self.tracks[ti]
                track.steps.append(step)
                track.labels.append(y)
                track.sizes.append(int(sizes_b[y]))
                if volumes_b is not None:
                    track.volumes.append(float(volumes_b[y]))
                new_head[y] = ti
        for y in range(nb):
            if y not in new_head:
                new_head[y] = self._start_track(step, y, sizes_b, volumes_b)
        self.head = new_head

    def tree_arrays(self) -> dict[str, np.ndarray]:
        """The events and tracks packed into the on-disk layout."""
        events, tracks = self.events, self.tracks
        return {
            "steps": np.asarray(self.steps, dtype=np.int64),
            "event_kinds": np.array(
                [EVENT_KINDS.index(e.kind) for e in events], dtype=np.int64
            ),
            "event_steps": np.array(
                [(e.step_from, e.step_to) for e in events], dtype=np.int64
            ).reshape(len(events), 2),
            "event_from_offsets": np.cumsum(
                [0] + [len(e.labels_from) for e in events], dtype=np.int64
            ),
            "event_from_labels": np.array(
                [v for e in events for v in e.labels_from], dtype=np.int64
            ),
            "event_to_offsets": np.cumsum(
                [0] + [len(e.labels_to) for e in events], dtype=np.int64
            ),
            "event_to_labels": np.array(
                [v for e in events for v in e.labels_to], dtype=np.int64
            ),
            "event_shared": np.array(
                [e.shared_cells for e in events], dtype=np.int64
            ),
            "track_offsets": np.cumsum(
                [0] + [len(t.steps) for t in tracks], dtype=np.int64
            ),
            "track_steps": np.array(
                [s for t in tracks for s in t.steps], dtype=np.int64
            ),
            "track_labels": np.array(
                [v for t in tracks for v in t.labels], dtype=np.int64
            ),
            "track_sizes": np.array(
                [s for t in tracks for s in t.sizes], dtype=np.int64
            ),
            "track_volumes": np.array(
                [v for t in tracks for v in t.volumes], dtype=np.float64
            ),
        }

    def state(self) -> dict[str, np.ndarray]:
        """The checkpoint layout: tree arrays, head, previous labeling and
        ``flags = [min_overlap, 0, prev_present, with_volumes]``."""
        arrays = self.tree_arrays()
        head = sorted(self.head.items())
        arrays["head_labels"] = np.array([k for k, _ in head], dtype=np.int64)
        arrays["head_tracks"] = np.array([v for _, v in head], dtype=np.int64)
        prev = self.prev
        for key, attr in (("prev_site_ids", "site_ids"), ("prev_labels", "labels")):
            arrays[key] = np.asarray(
                [] if prev is None else getattr(prev, attr), dtype=np.int64
            )
        wv = self.with_volumes
        arrays["flags"] = np.array(
            [
                self.min_overlap,
                0,
                int(prev is not None),
                -1 if wv is None else int(wv),
            ],
            dtype=np.int64,
        )
        return arrays


def assert_same_columns(got: dict, want: dict, volumes_rtol: float | None = 0.0):
    """Key-for-key equality of two trees' (or builder states') arrays,
    dtypes included.  ``track_volumes`` is compared exactly by default, to
    ``volumes_rtol`` when it is positive, and skipped when it is None."""
    assert set(got) == set(want)
    for key in want:
        if key == "track_volumes" and volumes_rtol is None:
            continue
        assert got[key].dtype == want[key].dtype, key
        if key == "track_volumes" and volumes_rtol:
            np.testing.assert_allclose(got[key], want[key], rtol=volumes_rtol)
        else:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
