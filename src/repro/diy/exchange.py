"""DIY-style neighborhood exchange.

A :class:`NeighborExchanger` moves payloads between neighboring blocks of a
:class:`~repro.diy.decomposition.Decomposition`.  The pattern follows DIY's
``enqueue``/``exchange`` API: during a round, each block enqueues payloads to
some of its links; a single collective ``exchange`` then delivers everything,
and each block dequeues what its neighbors sent.

Two behaviors from the paper (§III-C1) are first-class here:

* **Periodic transforms** — when a payload travels along a link that crosses
  the periodic domain boundary, a user-supplied ``transform(payload,
  translation)`` callback is invoked with the coordinate translation for that
  link, so particle positions arrive expressed in the receiving block's
  frame.
* **Near-point targeting** — helpers on the decomposition select only the
  links whose ghost region actually needs a given particle; the exchanger
  itself is target-agnostic and ships whatever was enqueued.

Blocks are mapped to ranks by an :class:`Assignment` (round-robin by
default).  Multiple blocks per rank are supported, which also gives a serial
mode: one rank holding all blocks exchanges with itself.

The exchanger is written purely against the :class:`Communicator` contract,
so it runs unchanged on either execution backend of
:func:`repro.diy.comm.run_parallel` — thread ranks (payloads pass by
reference) or process ranks (payloads move with pickle protocol-5
zero-copy/shared-memory transport).  Enqueued payloads must not be mutated
after :meth:`NeighborExchanger.enqueue`; every call site in this package
enqueues private copies.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

import numpy as np

from .bounds import periodic_translation
from .comm import Communicator
from .decomposition import Decomposition, NeighborLink

__all__ = ["Assignment", "NeighborExchanger"]


class Assignment:
    """Maps block gids to ranks.

    The default is round-robin (``rank = gid % nranks``), matching DIY's
    contiguous/round-robin assigners.  The paper's runs use one block per
    process, which is the special case ``nblocks == nranks``.
    """

    def __init__(self, nblocks: int, nranks: int):
        if nblocks < 1 or nranks < 1:
            raise ValueError("nblocks and nranks must be >= 1")
        if nranks > nblocks:
            raise ValueError(
                f"more ranks ({nranks}) than blocks ({nblocks}); every rank needs work"
            )
        self.nblocks = nblocks
        self.nranks = nranks

    def rank_of(self, gid: int) -> int:
        """Rank owning block ``gid``."""
        if not 0 <= gid < self.nblocks:
            raise ValueError(f"gid {gid} out of range [0, {self.nblocks})")
        return gid % self.nranks

    def gids_of(self, rank: int) -> list[int]:
        """All block gids owned by ``rank``, ascending."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        return list(range(rank, self.nblocks, self.nranks))


class NeighborExchanger:
    """Per-rank neighborhood exchange engine.

    Parameters
    ----------
    decomposition:
        The global block decomposition (identical on every rank).
    comm:
        This rank's communicator.
    assignment:
        Block-to-rank mapping; defaults to round-robin over
        ``decomposition.nblocks`` blocks.
    transform:
        Callback ``transform(payload, translation) -> payload`` applied to
        payloads sent along periodic links, where ``translation`` is the
        vector to add to coordinates (see
        :func:`repro.diy.bounds.periodic_translation`).  If omitted, payloads
        cross periodic links unmodified.
    """

    def __init__(
        self,
        decomposition: Decomposition,
        comm: Communicator,
        assignment: Assignment | None = None,
        transform: Callable[[Any, np.ndarray], Any] | None = None,
    ) -> None:
        self.decomposition = decomposition
        self.comm = comm
        self.assignment = assignment or Assignment(decomposition.nblocks, comm.size)
        if self.assignment.nblocks != decomposition.nblocks:
            raise ValueError("assignment does not cover the decomposition")
        if self.assignment.nranks != comm.size:
            raise ValueError("assignment rank count does not match communicator size")
        self.transform = transform
        # outgoing[dest_rank] -> list of (dest_gid, src_gid, payload)
        self._outgoing: dict[int, list[tuple[int, int, Any]]] = defaultdict(list)
        self.local_gids = self.assignment.gids_of(comm.rank)

    # ------------------------------------------------------------------
    def enqueue(self, src_gid: int, link: NeighborLink, payload: Any) -> None:
        """Queue ``payload`` from block ``src_gid`` along ``link``.

        Periodic links apply the transform callback immediately (the payload
        is already a private copy at every call site in this package).
        """
        if self.assignment.rank_of(src_gid) != self.comm.rank:
            raise ValueError(
                f"block {src_gid} is not owned by rank {self.comm.rank}"
            )
        if link.is_periodic and self.transform is not None:
            translation = periodic_translation(
                np.asarray(link.wrap), self.decomposition.domain
            )
            payload = self.transform(payload, translation)
        dest_rank = self.assignment.rank_of(link.gid)
        self._outgoing[dest_rank].append((link.gid, src_gid, payload))

    def exchange(self) -> dict[int, list[tuple[int, Any]]]:
        """Deliver all enqueued payloads (collective).

        Every rank must call this, even with nothing enqueued.  Returns a
        mapping from each locally owned gid to the list of ``(src_gid,
        payload)`` pairs received this round, in deterministic
        (source-rank, enqueue) order.  The outgoing queues are cleared.

        Delivery is **sparse**: each rank sends one batch per destination
        rank with a non-empty queue (plus a small O(log P) header round),
        so the cost scales with the neighborhood size rather than a dense
        alltoall's O(P) messages per rank.
        """
        from .. import observe

        if observe.enabled():
            # Exchange-traffic counters: the payload volume per round
            # shows whether near-point targeting held ghost traffic down.
            reg = observe.registry()
            reg.counter("exchange.rounds", rank=self.comm.rank).inc()
            reg.counter("exchange.payloads", rank=self.comm.rank).inc(
                sum(len(q) for q in self._outgoing.values())
            )
        outbox = {r: q for r, q in self._outgoing.items() if q}
        self._outgoing.clear()
        received = self.comm.sparse_alltoall(outbox)

        inbox: dict[int, list[tuple[int, Any]]] = {g: [] for g in self.local_gids}
        for src in sorted(received):  # in source-rank order
            for dest_gid, src_gid, payload in received[src]:
                inbox[dest_gid].append((src_gid, payload))
        return inbox
