"""Struct-of-arrays particle storage.

HACC stores particles as parallel arrays (positions, momenta, global ids);
:class:`ParticleSet` mirrors that layout so every operation — force
interpolation, migration masks, ghost selection — is a vectorized NumPy
expression over contiguous arrays.  Optional per-particle ``annotations``
(extra named arrays, e.g. analysis tags) ride along through every
``select``/``concatenate``/migration round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ParticleSet"]


@dataclass
class ParticleSet:
    """Particles as parallel arrays.

    Attributes
    ----------
    positions:
        ``(n, 3)`` comoving positions (grid units inside the integrator,
        Mpc/h at the analysis interface).
    velocities:
        ``(n, 3)`` conjugate momenta / velocities in matching units.
    ids:
        ``(n,)`` globally unique particle identifiers (int64), preserved
        across migration and ghost exchange.
    annotations:
        Optional named per-particle arrays (first axis length ``n``).
        Dtypes and keys survive selection, concatenation, and migration —
        including zero-row selections, which migration legitimately
        produces on ranks with no outgoing particles.
    """

    positions: np.ndarray
    velocities: np.ndarray
    ids: np.ndarray
    annotations: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        self.ids = np.asarray(self.ids, dtype=np.int64)
        n = len(self.positions)
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (n, 3), got {self.positions.shape}")
        if self.velocities.shape != (n, 3):
            raise ValueError(
                f"velocities must match positions, got {self.velocities.shape}"
            )
        if self.ids.shape != (n,):
            raise ValueError(f"ids must be (n,), got {self.ids.shape}")
        for key, value in list(self.annotations.items()):
            arr = np.asarray(value)
            if arr.shape[:1] != (n,):
                raise ValueError(
                    f"annotation {key!r} must have leading length {n}, "
                    f"got shape {arr.shape}"
                )
            self.annotations[key] = arr

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.positions)

    @classmethod
    def empty(cls) -> "ParticleSet":
        """A particle set with zero particles (and no annotations)."""
        return cls(
            positions=np.empty((0, 3)),
            velocities=np.empty((0, 3)),
            ids=np.empty(0, dtype=np.int64),
        )

    @staticmethod
    def _as_index(mask_or_index: np.ndarray) -> np.ndarray:
        idx = np.asarray(mask_or_index)
        if idx.size == 0 and idx.dtype.kind not in "bui":
            # An empty Python list defaults to float64, which NumPy rejects
            # as an index; a zero-row selection is legitimate (migration
            # with no outgoing particles), so coerce to an int index.
            idx = idx.astype(np.int64)
        return idx

    def select(self, mask_or_index: np.ndarray) -> "ParticleSet":
        """Subset by boolean mask or index array (copies).

        Zero-row selections (empty masks, empty index lists) are valid and
        preserve all dtypes and annotation keys.
        """
        idx = self._as_index(mask_or_index)
        return ParticleSet(
            positions=self.positions[idx].copy(),
            velocities=self.velocities[idx].copy(),
            ids=self.ids[idx].copy(),
            annotations={k: v[idx].copy() for k, v in self.annotations.items()},
        )

    @staticmethod
    def concatenate(parts: list["ParticleSet"]) -> "ParticleSet":
        """Concatenate particle sets (empty input yields an empty set).

        Un-annotated zero-row parts (e.g. ``ParticleSet.empty()`` filler in
        migration outboxes) are neutral elements and are skipped.  Annotated
        zero-row parts participate so that keys and dtypes round-trip even
        when every rank sends nothing.  Mixing annotated and un-annotated
        non-trivial parts is ambiguous and raises.
        """
        live = [p for p in parts if len(p) > 0 or p.annotations]
        if not live:
            return ParticleSet.empty()
        keysets = {frozenset(p.annotations) for p in live}
        if len(keysets) > 1:
            keys = sorted(frozenset.union(*keysets) - frozenset.intersection(*keysets))
            raise ValueError(
                f"cannot concatenate particle sets with mismatched "
                f"annotation keys (differing: {keys})"
            )
        keys = sorted(keysets.pop())
        return ParticleSet(
            positions=np.concatenate([p.positions for p in live]),
            velocities=np.concatenate([p.velocities for p in live]),
            ids=np.concatenate([p.ids for p in live]),
            annotations={
                k: np.concatenate([p.annotations[k] for p in live]) for k in keys
            },
        )

    def copy(self) -> "ParticleSet":
        """Deep copy."""
        return ParticleSet(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            ids=self.ids.copy(),
            annotations={k: v.copy() for k, v in self.annotations.items()},
        )
