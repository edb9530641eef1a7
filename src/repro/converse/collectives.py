"""Converse collectives: spanning trees and alltoallv.

Converse implements collectives once, over whatever machine layer is
attached (paper §III.B: "Different machine-specific LRTS implementations
can share common implementations such as collective operations").

:class:`SpanningTree` is the k-ary tree Charm++ reductions, array
broadcasts and quiescence detection walk.  :class:`CollectiveEngine` runs
alltoallv over one of two transports:

* ``"tree"`` — the reference data path: dense pairwise sends through
  plain ``LrtsSyncSend``.
* ``"persistent"`` — pre-negotiated windows: every data edge is a
  persistent channel (RMA windows on layers with one-sided support), the
  persistent-alltoallv scheme.  Channels are created on first use and
  sends queue until the window handshake completes, so the negotiation
  needs no separate barrier.  Layers without persistent messages (mpi)
  transparently fall back to plain sends on the same communication
  pattern — results are bit-identical either way, only timing differs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.converse.scheduler import Message, PE
from repro.errors import CharmError

#: per-item header bytes in packed collective payloads (rank + length)
_ITEM_HEADER = 16


class SpanningTree:
    """A k-ary spanning tree over PE ranks rooted at 0.

    Charm++ uses a branching factor of 4 on most machines; the tree is
    defined arithmetically so no per-node state is needed.
    """

    def __init__(self, n_pes: int, branching: int = 4, root: int = 0):
        if n_pes < 1:
            raise ValueError(f"need at least one PE, got {n_pes}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        self.n_pes = n_pes
        self.branching = branching
        self.root = root

    def _rel(self, pe: int) -> int:
        return (pe - self.root) % self.n_pes

    def _abs(self, rel: int) -> int:
        return (rel + self.root) % self.n_pes

    def parent(self, pe: int) -> int | None:
        rel = self._rel(pe)
        if rel == 0:
            return None
        return self._abs((rel - 1) // self.branching)

    def children(self, pe: int) -> Iterator[int]:
        rel = self._rel(pe)
        first = rel * self.branching + 1
        for c in range(first, min(first + self.branching, self.n_pes)):
            yield self._abs(c)

    def subtree_size(self, pe: int) -> int:
        """Number of PEs in the subtree rooted at ``pe`` (incl. itself)."""
        count = 1
        for c in self.children(pe):
            count += self.subtree_size(c)
        return count


class _A2aState:
    """Per-(cid, rank) alltoallv progress."""

    __slots__ = ("items", "on_done")

    def __init__(self) -> None:
        self.items: dict[int, tuple[int, Any]] = {}
        self.on_done: Optional[Callable[[PE, dict], None]] = None


class CollectiveEngine:
    """Alltoallv over plain sends or persistent channels.

    One engine instance is shared by all participating PEs (the simulator
    analogue of the collective module linked into every process image).
    Operations are identified by a caller-chosen ``cid``; each PE joins an
    operation by calling :meth:`alltoallv` from a handler running on that
    PE, and its ``on_done(pe, items)`` callback fires once with
    ``{rank: (nbytes, value)}`` covering every rank.

    ``algorithm="tree"`` sends dense pairwise messages.
    ``algorithm="persistent"`` moves every data edge over a persistent
    channel — a pre-negotiated RMA window on layers that have them (paper
    §IV.A's persistent alltoallv).  The two algorithms produce
    bit-identical ``items``.
    """

    def __init__(self, conv: Any, algorithm: str = "tree"):
        if algorithm not in ("tree", "persistent"):
            raise CharmError(
                f"unknown collective algorithm {algorithm!r} "
                "(available: 'tree', 'persistent')")
        self.conv = conv
        self.algorithm = algorithm
        self.n = len(conv.pes)
        self._hid = conv.register_handler(self._handler)
        self._a2a: dict[tuple[Any, int], _A2aState] = {}
        #: (src, dst) -> PersistentHandle, reused across operations
        self._chan: dict[tuple[int, int], Any] = {}
        self._obs = conv.machine.observer

    # -- transport ---------------------------------------------------------
    def _send(self, pe: PE, dst: int, nbytes: int, payload: Any) -> None:
        msg = Message(handler=self._hid, src_pe=pe.rank, dst_pe=dst,
                      nbytes=nbytes, payload=payload)
        obs = self._obs
        if obs is not None:
            obs.metrics.inc("coll/sends")
            obs.metrics.inc("coll/bytes", nbytes)
        if self.algorithm == "persistent":
            self._chan_send(pe, dst, msg)
        else:
            self.conv.send(pe, dst, msg)

    def _chan_send(self, pe: PE, dst: int, msg: Message) -> None:
        """Send over a persistent channel, creating/growing it on demand.

        Channel creation needs no separate negotiation round: the layer
        queues sends until the window handshake completes.  Layers
        without persistent support (mpi) fall back to plain sends on the
        same pattern.
        """
        lrts = self.conv.lrts
        if dst == pe.rank or not lrts.supports_persistent:
            self.conv.send(pe, dst, msg)
            return
        key = (pe.rank, dst)
        handle = self._chan.get(key)
        if handle is not None and handle.max_bytes < msg.nbytes:
            destroy = getattr(lrts, "destroy_persistent", None)
            if destroy is not None:
                destroy(pe, handle)
            handle = None
        if handle is None:
            handle = lrts.create_persistent(pe, dst, max_bytes=msg.nbytes)
            self._chan[key] = handle
            if self._obs is not None:
                self._obs.metrics.inc("coll/persistent_channels")
        lrts.send_persistent(pe, handle, msg)

    # -- alltoallv ---------------------------------------------------------
    def alltoallv(self, pe: PE, cid: Any,
                  parts: dict[int, tuple[int, Any]],
                  on_done: Callable[[PE, dict], None]) -> None:
        """Send ``parts[dst] = (nbytes, value)`` to each rank; ``parts``
        must cover all ranks.  ``on_done(pe, items)`` fires with this
        rank's received ``{src: (nbytes, value)}``."""
        if sorted(parts) != list(range(self.n)):
            raise CharmError(
                f"alltoallv parts must cover ranks 0..{self.n - 1}, "
                f"got {sorted(parts)}")
        st = self._a2a_state(cid, pe.rank)
        if st.on_done is not None:
            raise CharmError(
                f"PE {pe.rank} already joined alltoallv {cid!r}")
        if self._obs is not None:
            self._obs.metrics.inc("coll/alltoallv")
        st.on_done = on_done
        st.items[pe.rank] = parts[pe.rank]
        for dst in sorted(parts):
            if dst == pe.rank:
                continue
            nbytes, value = parts[dst]
            self._send(pe, dst, nbytes + _ITEM_HEADER,
                       ("a2a", cid, pe.rank, nbytes, value))
        self._a2a_try_finish(pe, cid, st)

    def _a2a_state(self, cid: Any, rank: int) -> _A2aState:
        return self._a2a.setdefault((cid, rank), _A2aState())

    def _a2a_try_finish(self, pe: PE, cid: Any, st: _A2aState) -> None:
        if st.on_done is None or len(st.items) != self.n:
            return
        on_done = st.on_done
        del self._a2a[(cid, pe.rank)]
        on_done(pe, dict(st.items))

    # -- dispatch ----------------------------------------------------------
    def _handler(self, pe: PE, message: Message) -> None:
        _, cid, src, nbytes, value = message.payload
        st = self._a2a_state(cid, pe.rank)
        st.items[src] = (nbytes, value)
        self._a2a_try_finish(pe, cid, st)
