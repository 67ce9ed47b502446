"""Temporal tracking of connected components across time steps.

Paper §V: "We will also look to tracking temporal evolution of connected
components by using the feature tree method of Chen et al."  A feature
tree links features (here: voids) between consecutive tessellation outputs
by *overlap* — two components at successive steps correspond when they
share member cells.  Because tess cells are keyed by global particle ids,
overlap is exact set intersection: no geometric matching is needed.

This module is the production time-domain subsystem (DESIGN.md §14):

* :func:`overlap_matrix` — the flat overlap core: one
  :func:`~repro.core.data_model.index_in_sorted` join of the two
  labelings' site ids plus an ``np.add.at`` pair count — no per-cell
  Python loop.  The per-cell dict count it replaced is the parity
  reference in ``tests/tracking_reference.py``.
* :class:`FeatureTreeBuilder` — incremental, one labeling at a time, with
  a flat-array checkpointable state (:meth:`~FeatureTreeBuilder.state` /
  :meth:`~FeatureTreeBuilder.from_state`) so in situ tracking survives
  checkpoint/restart bit-identically.
* :func:`track_components` — the postprocessing driver.  In situ, the
  tracking tool (:class:`repro.insitu.tools.TrackingTool`) advances one
  builder on rank 0 from the component-merge rows of the rank-local
  blocks; no mesh geometry travels.
* :class:`MergerTree` — the stable on-disk form: flat arrays for the
  per-track label/size/volume histories and the event log, saved as a
  versioned ``.npz`` with a JSON meta record.

Transitions are classified as continuation, merge, split, birth, or
death, and tracks follow the largest-overlap chain.  At a merge the
surviving track is arbitrated by overlap count (ties to the smaller
label) — not by dict insertion order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .. import observe
from ..core.data_model import index_in_sorted
from .components import ComponentLabeling

__all__ = [
    "FeatureEvent",
    "FeatureTrack",
    "FeatureTree",
    "FeatureTreeBuilder",
    "MergerTree",
    "overlap_matrix",
    "track_components",
]

#: on-disk merger-tree format identifier (bump on incompatible changes)
MERGER_TREE_FORMAT = "repro-merger-tree-1"

_EVENT_KINDS = ("continuation", "merge", "split", "birth", "death")


@dataclass(frozen=True)
class FeatureEvent:
    """One labeled transition between consecutive steps."""

    kind: str  # "continuation" | "merge" | "split" | "birth" | "death"
    step_from: int | None
    step_to: int | None
    labels_from: tuple[int, ...]
    labels_to: tuple[int, ...]
    shared_cells: int


@dataclass
class FeatureTrack:
    """A single feature followed through time (largest-overlap chain).

    ``volumes`` is populated only when per-label volumes were supplied to
    the tracker (the merger-tree path); it is then aligned with ``steps``.
    """

    steps: list[int] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    volumes: list[float] = field(default_factory=list)

    @property
    def lifetime(self) -> int:
        """Number of steps the feature persists."""
        return len(self.steps)


@dataclass
class FeatureTree:
    """All events and tracks across a sequence of labelings."""

    steps: list[int]
    events: list[FeatureEvent]
    tracks: list[FeatureTrack]

    def events_at(self, step_to: int) -> list[FeatureEvent]:
        """Events arriving at a given step."""
        return [e for e in self.events if e.step_to == step_to]

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out


# ----------------------------------------------------------------------
# overlap kernel
# ----------------------------------------------------------------------
def overlap_matrix(
    a: ComponentLabeling, b: ComponentLabeling
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-cell counts between components of two labelings (flat core).

    Returns aligned int64 arrays ``(labels_a, labels_b, counts)`` holding
    every component pair that shares at least one cell, ordered
    lexicographically by ``(label_a, label_b)``.  One
    :func:`~repro.core.data_model.index_in_sorted` join of the sorted site
    ids plus an ``np.add.at`` accumulation — no per-cell Python loop.
    """
    na, nb = a.num_components, b.num_components
    empty = np.empty(0, dtype=np.int64)
    if na == 0 or nb == 0:
        return empty, empty.copy(), empty.copy()
    pos, mask = index_in_sorted(
        np.asarray(a.site_ids, dtype=np.int64),
        np.asarray(b.site_ids, dtype=np.int64),
    )
    if not mask.any():
        return empty, empty.copy(), empty.copy()
    la = np.asarray(a.labels, dtype=np.int64)[mask]
    lb = np.asarray(b.labels, dtype=np.int64)[pos[mask]]
    key = la * np.int64(nb) + lb
    pairs, inverse = np.unique(key, return_inverse=True)
    counts = np.zeros(len(pairs), dtype=np.int64)
    np.add.at(counts, inverse, 1)
    return pairs // nb, pairs % nb, counts


# ----------------------------------------------------------------------
# incremental builder
# ----------------------------------------------------------------------
class FeatureTreeBuilder:
    """Incremental feature-tree assembly, one labeling per :meth:`push`.

    The builder is the single tracking engine behind
    :func:`track_components` and the in situ tracking tool.  Its complete
    state round-trips through flat numpy arrays (:meth:`state` /
    :meth:`from_state`) so an interrupted in situ run restores
    bit-identically from a checkpoint.
    """

    def __init__(self, min_overlap: int = 1) -> None:
        if min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
        self.min_overlap = int(min_overlap)
        self._steps: list[int] = []
        self._events: list[FeatureEvent] = []
        self._tracks: list[FeatureTrack] = []
        self._head: dict[int, int] = {}  # label at last step -> track index
        self._prev: ComponentLabeling | None = None
        self._with_volumes: bool | None = None

    @property
    def last_step(self) -> int | None:
        """Most recently pushed step (``None`` before the first push)."""
        return self._steps[-1] if self._steps else None

    # ------------------------------------------------------------------
    def push(
        self,
        step: int,
        labeling: ComponentLabeling,
        volumes: np.ndarray | None = None,
    ) -> None:
        """Link ``labeling`` (at ``step``) to the previously pushed one.

        ``volumes`` is an optional per-label volume array (length
        ``labeling.num_components``); once supplied it must be supplied on
        every push so track volume histories stay aligned.
        """
        step = int(step)
        if self._steps and step <= self._steps[-1]:
            raise ValueError(
                f"steps must be strictly increasing; got {step} after "
                f"{self._steps[-1]}"
            )
        with_volumes = volumes is not None
        if self._with_volumes is None:
            self._with_volumes = with_volumes
        elif self._with_volumes != with_volumes:
            raise ValueError(
                "per-label volumes must be supplied on every push or never"
            )
        if with_volumes and len(volumes) != labeling.num_components:
            raise ValueError(
                f"volumes has {len(volumes)} entries for "
                f"{labeling.num_components} components"
            )
        sizes = labeling.sizes()
        with observe.span("tracking-link", cat="analysis", step=step):
            if self._prev is None:
                new_head: dict[int, int] = {}
                for label in range(labeling.num_components):
                    new_head[label] = self._start_track(
                        step, label, sizes, volumes
                    )
                self._head = new_head
            else:
                self._link(step, labeling, sizes, volumes)
        self._steps.append(step)
        self._prev = labeling

    def tree(self) -> FeatureTree:
        """Snapshot of the accumulated feature tree."""
        return FeatureTree(
            steps=list(self._steps),
            events=list(self._events),
            tracks=list(self._tracks),
        )

    # ------------------------------------------------------------------
    def _start_track(
        self, step: int, label: int, sizes: np.ndarray, volumes
    ) -> int:
        track = FeatureTrack(
            steps=[step], labels=[int(label)], sizes=[int(sizes[label])]
        )
        if volumes is not None:
            track.volumes.append(float(volumes[label]))
        self._tracks.append(track)
        return len(self._tracks) - 1

    def _link(
        self,
        step: int,
        b: ComponentLabeling,
        sizes_b: np.ndarray,
        volumes_b,
    ) -> None:
        a = self._prev
        prev_step = self._steps[-1]
        la, lb, n = overlap_matrix(a, b)
        keep = n >= self.min_overlap
        la, lb, n = la[keep], lb[keep], n[keep]
        na, nb = a.num_components, b.num_components
        kids_of = np.bincount(la, minlength=na)
        pars_of = np.bincount(lb, minlength=nb)
        shared_a = np.zeros(na, dtype=np.int64)
        np.add.at(shared_a, la, n)
        shared_b = np.zeros(nb, dtype=np.int64)
        np.add.at(shared_b, lb, n)
        # Links arrive sorted by (la, lb); group boundaries per la come
        # straight from searchsorted.  For per-lb groups, resort.
        a_bounds = np.searchsorted(la, np.arange(na + 1))
        order_b = np.lexsort((la, lb))
        b_bounds = np.searchsorted(lb[order_b], np.arange(nb + 1))

        counts_before = len(self._events)
        for x in range(na):
            k = int(kids_of[x])
            if k == 0:
                self._events.append(
                    FeatureEvent("death", prev_step, step, (x,), (), 0)
                )
            elif k > 1:
                kids = lb[a_bounds[x] : a_bounds[x + 1]]  # ascending lb
                self._events.append(
                    FeatureEvent(
                        "split",
                        prev_step,
                        step,
                        (x,),
                        tuple(int(v) for v in kids),
                        int(shared_a[x]),
                    )
                )
        for y in range(nb):
            p = int(pars_of[y])
            group = order_b[b_bounds[y] : b_bounds[y + 1]]  # ascending la
            if p == 0:
                self._events.append(
                    FeatureEvent("birth", prev_step, step, (), (y,), 0)
                )
            elif p > 1:
                self._events.append(
                    FeatureEvent(
                        "merge",
                        prev_step,
                        step,
                        tuple(int(v) for v in la[group]),
                        (y,),
                        int(shared_b[y]),
                    )
                )
            elif int(kids_of[la[group[0]]]) == 1:
                self._events.append(
                    FeatureEvent(
                        "continuation",
                        prev_step,
                        step,
                        (int(la[group[0]]),),
                        (y,),
                        int(n[group[0]]),
                    )
                )
        if observe.enabled():
            tallies: dict[str, int] = {}
            for e in self._events[counts_before:]:
                tallies[e.kind] = tallies.get(e.kind, 0) + 1
            reg = observe.registry()
            for kind, plural in (
                ("birth", "births"),
                ("death", "deaths"),
                ("merge", "merges"),
                ("split", "splits"),
            ):
                if tallies.get(kind):
                    reg.counter(f"tracking.{plural}").inc(tallies[kind])

        # Extend tracks.  Each parent nominates its largest-overlap child
        # (ties: smaller child label); a child nominated by several
        # parents is claimed by the largest-overlap parent (ties: smaller
        # parent label) — overlap arbitration, never dict insertion order.
        new_head: dict[int, int] = {}
        if len(la):
            order_best = np.lexsort((lb, -n, la))
            la_sorted = la[order_best]
            first = np.ones(len(la_sorted), dtype=bool)
            first[1:] = la_sorted[1:] != la_sorted[:-1]
            chosen = order_best[first]  # one link per parent
            cla, clb, cn = la[chosen], lb[chosen], n[chosen]
            order_claim = np.lexsort((cla, -cn, clb))
            clb_sorted = clb[order_claim]
            firstc = np.ones(len(clb_sorted), dtype=bool)
            firstc[1:] = clb_sorted[1:] != clb_sorted[:-1]
            for w in order_claim[firstc]:
                x, y = int(cla[w]), int(clb[w])
                ti = self._head[x]
                track = self._tracks[ti]
                track.steps.append(step)
                track.labels.append(y)
                track.sizes.append(int(sizes_b[y]))
                if volumes_b is not None:
                    track.volumes.append(float(volumes_b[y]))
                new_head[y] = ti
        # Births (and merge losers' children) start fresh tracks.
        for y in range(nb):
            if y not in new_head:
                new_head[y] = self._start_track(step, y, sizes_b, volumes_b)
        self._head = new_head

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot restoring bit-identically via
        :meth:`from_state` (int64/f8 only — safe to ``np.savez``).

        ``flags`` is ``[min_overlap, 0, prev_present, with_volumes]``.
        Slot 1 once named the overlap kernel; it is written as 0 and
        ignored on read, so snapshots from either kernel restore.
        """
        arrays = _pack_tree_arrays(self._steps, self._events, self._tracks)
        head = sorted(self._head.items())
        arrays["head_labels"] = np.array(
            [k for k, _ in head], dtype=np.int64
        )
        arrays["head_tracks"] = np.array(
            [v for _, v in head], dtype=np.int64
        )
        if self._prev is not None:
            arrays["prev_site_ids"] = np.asarray(
                self._prev.site_ids, dtype=np.int64
            )
            arrays["prev_labels"] = np.asarray(
                self._prev.labels, dtype=np.int64
            )
            prev_present = 1
        else:
            arrays["prev_site_ids"] = np.empty(0, dtype=np.int64)
            arrays["prev_labels"] = np.empty(0, dtype=np.int64)
            prev_present = 0
        wv = self._with_volumes
        arrays["flags"] = np.array(
            [
                self.min_overlap,
                0,
                prev_present,
                -1 if wv is None else int(wv),
            ],
            dtype=np.int64,
        )
        return arrays

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray]) -> "FeatureTreeBuilder":
        """Rebuild a builder from a :meth:`state` snapshot."""
        flags = np.asarray(arrays["flags"], dtype=np.int64)
        builder = cls(min_overlap=int(flags[0]))
        steps, events, tracks = _unpack_tree_arrays(arrays)
        builder._steps = steps
        builder._events = events
        builder._tracks = tracks
        builder._head = {
            int(k): int(v)
            for k, v in zip(arrays["head_labels"], arrays["head_tracks"])
        }
        if flags[2]:
            builder._prev = ComponentLabeling(
                site_ids=np.asarray(arrays["prev_site_ids"], dtype=np.int64),
                labels=np.asarray(arrays["prev_labels"], dtype=np.int64),
            )
        builder._with_volumes = None if flags[3] < 0 else bool(flags[3])
        return builder


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def track_components(
    labelings: dict[int, ComponentLabeling],
    min_overlap: int = 1,
    volumes: dict[int, np.ndarray] | None = None,
) -> FeatureTree:
    """Build the feature tree over labelings keyed by step index.

    Parameters
    ----------
    labelings:
        Step -> component labeling (e.g. voids at each output step).
    min_overlap:
        Minimum shared cells for two components to be considered linked.
    volumes:
        Optional step -> per-label volume array; when given, tracks carry
        aligned volume histories (the merger-tree path).
    """
    steps = sorted(labelings)
    if not steps:
        raise ValueError("no labelings supplied")
    builder = FeatureTreeBuilder(min_overlap=min_overlap)
    for step in steps:
        builder.push(
            step,
            labelings[step],
            volumes=None if volumes is None else volumes[step],
        )
    return builder.tree()


# ----------------------------------------------------------------------
# merger-tree on-disk format
# ----------------------------------------------------------------------
def _pack_tree_arrays(
    steps: list[int],
    events: list[FeatureEvent],
    tracks: list[FeatureTrack],
) -> dict[str, np.ndarray]:
    ev_kinds = np.array(
        [_EVENT_KINDS.index(e.kind) for e in events], dtype=np.int64
    )
    ev_steps = np.array(
        [
            (
                -1 if e.step_from is None else e.step_from,
                -1 if e.step_to is None else e.step_to,
            )
            for e in events
        ],
        dtype=np.int64,
    ).reshape(len(events), 2)
    ev_from_offsets = np.cumsum(
        [0] + [len(e.labels_from) for e in events], dtype=np.int64
    )
    ev_from = np.array(
        [l for e in events for l in e.labels_from], dtype=np.int64
    )
    ev_to_offsets = np.cumsum(
        [0] + [len(e.labels_to) for e in events], dtype=np.int64
    )
    ev_to = np.array([l for e in events for l in e.labels_to], dtype=np.int64)
    ev_shared = np.array([e.shared_cells for e in events], dtype=np.int64)

    tr_offsets = np.cumsum(
        [0] + [len(t.steps) for t in tracks], dtype=np.int64
    )
    tr_steps = np.array(
        [s for t in tracks for s in t.steps], dtype=np.int64
    )
    tr_labels = np.array(
        [l for t in tracks for l in t.labels], dtype=np.int64
    )
    tr_sizes = np.array([s for t in tracks for s in t.sizes], dtype=np.int64)
    tr_volumes = np.array(
        [v for t in tracks for v in t.volumes], dtype=np.float64
    )
    return {
        "steps": np.asarray(steps, dtype=np.int64),
        "event_kinds": ev_kinds,
        "event_steps": ev_steps,
        "event_from_offsets": ev_from_offsets,
        "event_from_labels": ev_from,
        "event_to_offsets": ev_to_offsets,
        "event_to_labels": ev_to,
        "event_shared": ev_shared,
        "track_offsets": tr_offsets,
        "track_steps": tr_steps,
        "track_labels": tr_labels,
        "track_sizes": tr_sizes,
        "track_volumes": tr_volumes,
    }


def _unpack_tree_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[list[int], list[FeatureEvent], list[FeatureTrack]]:
    steps = [int(s) for s in arrays["steps"]]
    events: list[FeatureEvent] = []
    ev_steps = np.asarray(arrays["event_steps"], dtype=np.int64).reshape(-1, 2)
    fo = arrays["event_from_offsets"]
    to = arrays["event_to_offsets"]
    for i, code in enumerate(arrays["event_kinds"]):
        sf, st = int(ev_steps[i, 0]), int(ev_steps[i, 1])
        events.append(
            FeatureEvent(
                kind=_EVENT_KINDS[int(code)],
                step_from=None if sf < 0 else sf,
                step_to=None if st < 0 else st,
                labels_from=tuple(
                    int(v)
                    for v in arrays["event_from_labels"][fo[i] : fo[i + 1]]
                ),
                labels_to=tuple(
                    int(v)
                    for v in arrays["event_to_labels"][to[i] : to[i + 1]]
                ),
                shared_cells=int(arrays["event_shared"][i]),
            )
        )
    tracks: list[FeatureTrack] = []
    off = arrays["track_offsets"]
    has_volumes = len(arrays["track_volumes"]) > 0
    for i in range(len(off) - 1):
        lo, hi = int(off[i]), int(off[i + 1])
        tracks.append(
            FeatureTrack(
                steps=[int(v) for v in arrays["track_steps"][lo:hi]],
                labels=[int(v) for v in arrays["track_labels"][lo:hi]],
                sizes=[int(v) for v in arrays["track_sizes"][lo:hi]],
                volumes=[
                    float(v) for v in arrays["track_volumes"][lo:hi]
                ]
                if has_volumes
                else [],
            )
        )
    return steps, events, tracks


@dataclass
class MergerTree:
    """Merger-tree output in its stable on-disk form (flat arrays).

    Per-track step/label/size/volume histories plus the event log, all as
    int64/f8 arrays addressed by offsets — the exact layout written to
    disk by :meth:`save` (a versioned ``.npz`` with a JSON ``meta``
    record), so a load reproduces the saved tree bit for bit.
    """

    arrays: dict[str, np.ndarray]

    @classmethod
    def from_tree(cls, tree: FeatureTree) -> "MergerTree":
        """Pack a :class:`FeatureTree` into the on-disk layout."""
        return cls(arrays=_pack_tree_arrays(tree.steps, tree.events, tree.tracks))

    def to_tree(self) -> FeatureTree:
        """Unpack back into the in-memory :class:`FeatureTree`."""
        steps, events, tracks = _unpack_tree_arrays(self.arrays)
        return FeatureTree(steps=steps, events=events, tracks=tracks)

    @property
    def num_tracks(self) -> int:
        return len(self.arrays["track_offsets"]) - 1

    @property
    def num_events(self) -> int:
        return len(self.arrays["event_kinds"])

    @property
    def steps(self) -> np.ndarray:
        return self.arrays["steps"]

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        out: dict[str, int] = {}
        for code in self.arrays["event_kinds"]:
            kind = _EVENT_KINDS[int(code)]
            out[kind] = out.get(kind, 0) + 1
        return out

    def save(self, path: str) -> None:
        """Write the tree as a versioned ``.npz``, atomically."""
        meta = json.dumps(
            {"format": MERGER_TREE_FORMAT, "num_tracks": self.num_tracks}
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                np.savez(f, meta=np.array(meta), **self.arrays)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "MergerTree":
        """Read a tree written by :meth:`save`, validating the format."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("format") != MERGER_TREE_FORMAT:
                raise ValueError(
                    f"{path}: unknown merger-tree format "
                    f"{meta.get('format')!r} (expected {MERGER_TREE_FORMAT})"
                )
            arrays = {
                k: np.array(data[k]) for k in data.files if k != "meta"
            }
        return cls(arrays=arrays)
