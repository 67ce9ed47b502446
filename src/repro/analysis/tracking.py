"""Temporal tracking of connected components across time steps.

Paper §V: "We will also look to tracking temporal evolution of connected
components by using the feature tree method of Chen et al."  A feature
tree links features (here: voids) between consecutive tessellation outputs
by *overlap* — two components at successive steps correspond when they
share member cells.  Because tess cells are keyed by global particle ids,
overlap is exact set intersection: no geometric matching is needed.

The tree has one representation, :class:`MergerTree`'s flat columns
(DESIGN.md §14).  :class:`FeatureTreeBuilder` takes one labeling per push
and appends the new events as columns and one step-major ``(track, step,
label, size, volume)`` row per component, so a push costs the new step,
not the history; its state is the same columns plus the head and the
previous labeling, so in situ tracking (``TrackingTool``, rank 0) resumes
bit-identically.  The dict overlap and object builder these replaced are
the parity oracles in ``tests/tracking_reference.py``.

Transitions are continuation, merge, split, birth, or death; tracks follow
the largest-overlap chain (ties to the smaller label).  Within one push,
deaths and splits come first by ascending parent label, then births,
merges and continuations by ascending child label.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .. import observe
from ..core.data_model import index_in_sorted
from .components import ComponentLabeling

__all__ = ["FeatureTreeBuilder", "MergerTree", "overlap_matrix", "track_components"]

#: on-disk merger-tree format identifier (bump on incompatible changes)
MERGER_TREE_FORMAT = "repro-merger-tree-1"

_EVENT_KINDS = ("continuation", "merge", "split", "birth", "death")
_CONTINUATION, _MERGE, _SPLIT, _BIRTH, _DEATH = range(len(_EVENT_KINDS))

#: integer columns of a tree, in on-disk order (``track_volumes`` is f8)
_TREE_KEYS = (
    "steps", "event_kinds", "event_steps", "event_from_offsets",
    "event_from_labels", "event_to_offsets", "event_to_labels",
    "event_shared", "track_offsets", "track_steps", "track_labels",
    "track_sizes",
)
_STATE_KEYS = ("head_labels", "head_tracks", "prev_site_ids", "prev_labels", "flags")
#: the builder's column chunks, each seeded with an empty one of its type
_CHUNKS = {
    key: np.empty((0, 2) if key == "event_steps" else 0,
                  np.float64 if key == "track_volumes" else np.int64)
    for key in ("event_kinds", "event_steps", "event_from_counts",
                "event_from_labels", "event_to_counts", "event_to_labels",
                "event_shared", "track_ids", "track_steps", "track_labels",
                "track_sizes", "track_volumes")
}


def overlap_matrix(
    a: ComponentLabeling, b: ComponentLabeling
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared-cell counts between components of two labelings (flat core).

    Returns aligned int64 arrays ``(labels_a, labels_b, counts)`` holding
    every component pair that shares at least one cell, ordered
    lexicographically by ``(label_a, label_b)``.  One
    :func:`~repro.core.data_model.index_in_sorted` join of the sorted site
    ids plus one ``np.unique`` count — no per-cell Python loop.
    """
    na, nb = a.num_components, b.num_components
    if na == 0 or nb == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    pos, mask = index_in_sorted(a.site_ids, b.site_ids)
    la = np.asarray(a.labels, dtype=np.int64)[mask]
    lb = np.asarray(b.labels, dtype=np.int64)[pos[mask]]
    pairs, counts = np.unique(la * np.int64(nb) + lb, return_counts=True)
    return pairs // nb, pairs % nb, counts.astype(np.int64)


class FeatureTreeBuilder:
    """Incremental feature-tree assembly, one labeling per :meth:`push`:
    the one engine behind :func:`track_components` and the in situ tool.
    The tree is kept as appended column chunks that :meth:`tree` joins."""

    def __init__(self, min_overlap: int = 1) -> None:
        if min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
        self.min_overlap = int(min_overlap)
        self._steps: list[int] = []
        # Event columns (label counts in place of offsets) and step-major
        # track rows keyed by track id.
        self._cols = {key: [empty] for key, empty in _CHUNKS.items()}
        self._num_tracks = 0
        self._head = np.empty(0, dtype=np.int64)  # last step's label -> track
        self._prev: ComponentLabeling | None = None
        self._with_volumes: bool | None = None

    @property
    def last_step(self) -> int | None:
        """Most recently pushed step (``None`` before the first push)."""
        return self._steps[-1] if self._steps else None

    def push(
        self, step: int, labeling: ComponentLabeling, volumes: np.ndarray | None = None
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
        nb = labeling.num_components
        if with_volumes and len(volumes) != nb:
            raise ValueError(
                f"volumes has {len(volumes)} entries for {nb} components"
            )
        with observe.span("tracking-link", cat="analysis", step=step):
            if self._prev is None:
                head = np.full(nb, -1, dtype=np.int64)
            else:
                head = self._link(step, labeling)
            # Every component gets one row: claimed ones extend their
            # parent's track, the rest start tracks by ascending label.
            new = np.flatnonzero(head < 0)
            head[new] = self._num_tracks + np.arange(len(new))
            self._num_tracks += len(new)
            self._append(
                track_ids=head,
                track_steps=np.full(nb, step, dtype=np.int64),
                track_labels=np.arange(nb, dtype=np.int64),
                track_sizes=labeling.sizes().astype(np.int64),
            )
            if with_volumes:
                self._append(track_volumes=np.array(volumes, np.float64))
        self._head = head
        self._steps.append(step)
        self._prev = labeling

    def tree(self) -> MergerTree:
        """Snapshot of the accumulated tree (fresh arrays)."""
        c = {key: np.concatenate(chunks) for key, chunks in self._cols.items()}
        tracks = c.pop("track_ids")
        order = np.argsort(tracks, kind="stable")  # step-major -> track-major
        for key in ("track_steps", "track_labels", "track_sizes", "track_volumes"):
            c[key] = c[key][order] if len(c[key]) else c[key]
        c["track_offsets"] = _offsets(np.bincount(tracks, minlength=self._num_tracks))
        for side in ("from", "to"):
            c[f"event_{side}_offsets"] = _offsets(c.pop(f"event_{side}_counts"))
        c["steps"] = np.array(self._steps, dtype=np.int64)
        return MergerTree({key: c[key] for key in _TREE_KEYS + ("track_volumes",)})

    def _append(self, **columns: np.ndarray) -> None:
        for key, col in columns.items():
            self._cols[key].append(col)

    def _link(self, step: int, b: ComponentLabeling) -> np.ndarray:
        """Append the events from the last step to ``b``; return the
        track each of ``b``'s labels continues (-1: none)."""
        a = self._prev
        la, lb, n = overlap_matrix(a, b)
        keep = n >= self.min_overlap
        la, lb, n = la[keep], lb[keep], n[keep]  # still (la, lb)-sorted
        na, nb = a.num_components, b.num_components
        kids_of = np.bincount(la, minlength=na)
        pars_of = np.bincount(lb, minlength=nb)
        shared_a = np.bincount(la, weights=n, minlength=na).astype(np.int64)
        shared_b = np.bincount(lb, weights=n, minlength=nb).astype(np.int64)
        one = pars_of == 1
        parent = np.zeros(nb, dtype=np.int64)
        parent[lb] = la  # the parent of each single-parent child
        cont = np.zeros(nb, dtype=bool)
        cont[one] = kids_of[parent[one]] == 1

        # Deaths and splits by ascending parent, then births, merges and
        # continuations by ascending child; label lists are CSR columns.
        xs = np.flatnonzero(kids_of != 1)
        ys = np.flatnonzero(~one | cont)
        by_b = np.lexsort((la, lb))
        to_b = ((pars_of[lb] > 1) | cont[lb])[by_b]
        kinds = np.concatenate([
            np.where(kids_of[xs] == 0, _DEATH, _SPLIT),
            np.where(pars_of[ys] == 0, _BIRTH,
                     np.where(pars_of[ys] > 1, _MERGE, _CONTINUATION)),
        ])
        self._append(
            event_kinds=kinds,
            event_steps=np.tile(np.int64([self._steps[-1], step]), (len(kinds), 1)),
            event_from_counts=np.concatenate([np.ones_like(xs), pars_of[ys]]),
            event_from_labels=np.concatenate([xs, la[by_b][to_b]]),
            event_to_counts=np.concatenate([kids_of[xs], np.ones_like(ys)]),
            event_to_labels=np.concatenate([lb[kids_of[la] > 1], ys]),
            event_shared=np.concatenate([shared_a[xs], shared_b[ys]]),
        )
        if observe.enabled():
            tally = np.bincount(kinds, minlength=len(_EVENT_KINDS))
            for code in (_BIRTH, _DEATH, _MERGE, _SPLIT):
                if tally[code]:
                    name = f"tracking.{_EVENT_KINDS[code]}s"
                    observe.registry().counter(name).inc(int(tally[code]))

        # Each parent nominates its largest-overlap child (ties: smaller
        # child label); a child nominated by several parents is claimed by
        # the largest-overlap parent (ties: smaller parent label) — overlap
        # arbitration, never dict insertion order.
        head = np.full(nb, -1, dtype=np.int64)
        if len(la):
            order_best = np.lexsort((lb, -n, la))
            chosen = order_best[_first_of_runs(la[order_best])]
            cla, clb, cn = la[chosen], lb[chosen], n[chosen]
            order_claim = np.lexsort((cla, -cn, clb))
            won = order_claim[_first_of_runs(clb[order_claim])]
            head[clb[won]] = self._head[cla[won]]
        return head

    def state(self) -> dict[str, np.ndarray]:
        """Flat-array snapshot restoring bit-identically via
        :meth:`from_state` (int64/f8 only — safe to ``np.savez``).

        The :meth:`tree` columns, ``head_labels``/``head_tracks`` (each
        last-step label's track), ``prev_site_ids``/``prev_labels`` and
        ``flags = [min_overlap, 0, prev_present, with_volumes]``; slot 1
        once named the overlap kernel and is ignored on read.
        """
        arrays = self.tree().arrays
        prev, wv = self._prev, self._with_volumes
        arrays["head_labels"] = np.arange(len(self._head), dtype=np.int64)
        arrays["head_tracks"] = self._head.copy()
        for key, attr in (("prev_site_ids", "site_ids"), ("prev_labels", "labels")):
            arrays[key] = np.asarray(
                [] if prev is None else getattr(prev, attr), dtype=np.int64
            )
        flags = [self.min_overlap, 0, prev is not None, -1 if wv is None else wv]
        arrays["flags"] = np.array(flags, dtype=np.int64)
        return arrays

    @classmethod
    def from_state(cls, arrays: dict[str, np.ndarray]) -> "FeatureTreeBuilder":
        """Rebuild a builder from a :meth:`state` snapshot (checked first:
        a malformed one raises ``ValueError`` naming the array)."""
        _check_arrays(arrays, "tracking state", state=True)
        flags = arrays["flags"]
        builder = cls(min_overlap=int(flags[0]))
        builder._steps = arrays["steps"].tolist()
        track_counts = np.diff(arrays["track_offsets"])
        builder._num_tracks = len(track_counts)
        for key in set(builder._cols) & set(arrays):
            builder._cols[key].append(np.array(arrays[key]))
        builder._append(
            event_from_counts=np.diff(arrays["event_from_offsets"]),
            event_to_counts=np.diff(arrays["event_to_offsets"]),
            track_ids=np.repeat(np.arange(len(track_counts)), track_counts),
        )
        builder._head = np.array(arrays["head_tracks"])
        if flags[2]:
            builder._prev = ComponentLabeling(
                site_ids=np.array(arrays["prev_site_ids"]),
                labels=np.array(arrays["prev_labels"]),
            )
        builder._with_volumes = None if flags[3] < 0 else bool(flags[3])
        return builder


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal sorted keys."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def track_components(
    labelings: dict[int, ComponentLabeling],
    min_overlap: int = 1,
    volumes: dict[int, np.ndarray] | None = None,
) -> MergerTree:
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
        vols = None if volumes is None else volumes[step]
        builder.push(step, labelings[step], volumes=vols)
    return builder.tree()


def _check_arrays(arrays: dict, source: str, state: bool = False) -> None:
    """Refuse tree (or, with ``state``, builder-state) arrays that are not
    well formed, with a ``ValueError`` naming ``source`` and the array."""

    def bad(key: str, why: str) -> ValueError:
        return ValueError(f"{source}: merger-tree array {key!r} {why}")

    for key in _TREE_KEYS + ("track_volumes",) + (_STATE_KEYS if state else ()):
        if key not in arrays:
            raise bad(key, "is missing")
        arr, tail = arrays[key], (2,) if key == "event_steps" else ()
        want = np.dtype(np.float64 if key == "track_volumes" else np.int64)
        ok = getattr(arr, "dtype", None) == want and np.ndim(arr) == 1 + len(tail)
        if not ok or np.shape(arr)[1:] != tail:
            got = f"{getattr(arr, 'dtype', type(arr).__name__)} {np.shape(arr)}"
            raise bad(key, f"is {got}, expected {want} {('n',) + tail}")
    n = len(arrays["event_kinds"])
    rows = len(arrays["track_steps"])
    lengths = {"event_steps": n, "event_shared": n, "track_labels": rows,
               "track_sizes": rows, "track_volumes": rows}
    for key, want in lengths.items():
        got = len(arrays[key])
        if got != want and not (key == "track_volumes" and got == 0):
            raise bad(key, f"has {got} rows, expected {want}")
    if n and not 0 <= arrays["event_kinds"].min() <= arrays["event_kinds"].max() < 5:
        raise bad("event_kinds", f"holds a code outside 0..4 {_EVENT_KINDS}")
    for off_key, col_key, size in (
        ("event_from_offsets", "event_from_labels", n + 1),
        ("event_to_offsets", "event_to_labels", n + 1),
        ("track_offsets", "track_steps", len(arrays["track_offsets"])),
    ):
        off, end = arrays[off_key], len(arrays[col_key])
        if len(off) != size or not size or off[0] != 0 or off[-1] != end or (
            np.any(np.diff(off) < 0)
        ):
            raise bad(off_key, f"must rise from 0 to len({col_key}) = {end}")
    if not state:
        return
    head, prev = arrays["head_tracks"], arrays["prev_labels"]
    nprev = int(prev.max()) + 1 if len(prev) else 0
    ntracks = len(arrays["track_offsets"]) - 1
    if len(arrays["flags"]) != 4:
        raise bad("flags", "must hold 4 entries")
    if len(arrays["track_volumes"]) != (rows if arrays["flags"][3] == 1 else 0):
        raise bad("track_volumes", "disagrees with the with_volumes flag")
    if len(arrays["prev_site_ids"]) != len(prev):
        raise bad("prev_site_ids", "must match prev_labels in length")
    if not np.array_equal(arrays["head_labels"], np.arange(len(head))):
        raise bad("head_labels", "must be 0..n-1, one per head_tracks entry")
    if len(head) != nprev or (nprev and not 0 <= head.min() <= head.max() < ntracks):
        raise bad("head_tracks", f"must name one of {ntracks} tracks for "
                                 f"each of {nprev} previous labels")


@dataclass
class MergerTree:
    """The feature tree as flat int64/f8 columns — its one representation.

    ``steps``; the event log (``event_kinds`` coded by ``_EVENT_KINDS``,
    ``(from, to)`` ``event_steps``, CSR ``event_{from,to}_offsets`` /
    ``_labels``, ``event_shared``); and the track histories as a
    track-major CSR (``track_offsets`` over ``track_steps`` /
    ``track_labels`` / ``track_sizes`` / ``track_volumes``, the last empty
    without volumes).  :meth:`save` writes exactly these to a versioned
    ``.npz``, so a load reproduces the tree bit for bit.
    """

    arrays: dict[str, np.ndarray]

    @classmethod
    def from_tree(cls, tree: "MergerTree") -> "MergerTree":
        """The tree itself: :func:`track_components` already returns one."""
        return tree

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
        """Event counts by kind (kinds that occur only)."""
        tally = np.bincount(self.arrays["event_kinds"], minlength=len(_EVENT_KINDS))
        return {k: int(c) for k, c in zip(_EVENT_KINDS, tally) if c}

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
        """Read a tree written by :meth:`save`, checking the format and
        every array (``ValueError`` naming the path and the array)."""
        with np.load(path) as data:
            if "meta" not in data.files:
                raise ValueError(f"{path}: merger-tree array 'meta' is missing")
            try:
                meta = json.loads(str(data["meta"]))
            except ValueError:
                meta = None
            fmt = meta.get("format") if isinstance(meta, dict) else None
            if fmt != MERGER_TREE_FORMAT:
                raise ValueError(
                    f"{path}: unknown merger-tree format {fmt!r} "
                    f"(expected {MERGER_TREE_FORMAT})"
                )
            arrays = {k: np.array(data[k]) for k in data.files if k != "meta"}
        _check_arrays(arrays, path)
        tree = cls(arrays=arrays)
        if meta.get("num_tracks") != tree.num_tracks:
            raise ValueError(f"{path}: merger-tree array 'meta' has num_tracks "
                             f"{meta.get('num_tracks')!r}, not {tree.num_tracks}")
        return tree
