"""Network links with bandwidth serialization.

Contention model: each directed link keeps an ``available_at`` horizon.  A
transfer crossing the link waits until the link is free, then occupies it
for ``nbytes / bandwidth``.  This is a *flow-level* model (no per-packet
simulation): cheap enough to run hundreds of thousands of messages, while
still making hot links — the one-to-all root's ejection link, kNeighbor's
shared paths — serialize the way the paper's measurements show.
"""

from __future__ import annotations

from typing import Hashable


#: bandwidth multiplier while a link is hard-down: traffic that cannot
#: route around the fault still trickles through via link-level hardware
#: resend (Gemini's adaptive-routing recovery), heavily penalized.  Keeps
#: the flow model deadlock-free when every minimal direction is faulted.
DOWN_BANDWIDTH_FACTOR = 0.02
#: extra per-traversal latency of a faulted (down or degraded) link —
#: models the hardware retransmit/CRC-retry round trips
FAULT_LATENCY = 2.5e-6


class Link:
    """One directed link (or NIC injection/ejection port).

    A link may have several *lanes* — parallel channels sharing the same
    endpoints, each with the full per-lane bandwidth.  Torus links have
    one lane; NIC injection/ejection ports get several, modelling the
    Gemini NIC's concurrent FMA descriptor lanes / BTE virtual channels
    over a ~19 GB/s HyperTransport attach: many simultaneous transfers
    make progress together instead of convoying behind one FIFO.

    Fault state: a link is ``"up"``, ``"degraded"`` (fraction of nominal
    bandwidth, e.g. a lane running on its redundant wires), or ``"down"``
    (hard fault; see :data:`DOWN_BANDWIDTH_FACTOR`).  State is changed by
    the fault injector through :class:`~repro.hardware.router.TorusNetwork`
    so the router's fault bookkeeping stays consistent.
    """

    __slots__ = ("name", "bandwidth", "latency", "_lanes", "bytes_carried",
                 "transfers", "state", "degrade_factor", "faults",
                 "faulted_transfers")

    def __init__(self, name: Hashable, bandwidth: float, latency: float,
                 lanes: int = 1):
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        #: earliest time each lane can accept a new flow
        self._lanes = [0.0] * max(1, lanes)
        #: lifetime counters (diagnostics, adaptive routing load signal)
        self.bytes_carried = 0
        self.transfers = 0
        #: fault state: "up" | "degraded" | "down"
        self.state = "up"
        #: bandwidth multiplier while degraded
        self.degrade_factor = 1.0
        #: lifetime fault transitions and transfers carried while faulted
        self.faults = 0
        self.faulted_transfers = 0

    # -- fault state -----------------------------------------------------------
    @property
    def effective_bandwidth(self) -> float:
        if self.state == "down":
            return self.bandwidth * DOWN_BANDWIDTH_FACTOR
        if self.state == "degraded":
            return self.bandwidth * self.degrade_factor
        return self.bandwidth

    def fail(self) -> None:
        """Hard link fault (flap): traffic crawls until :meth:`restore`."""
        self.state = "down"
        self.faults += 1

    def degrade(self, factor: float) -> None:
        """Soft fault: run at ``factor`` of nominal bandwidth."""
        if not 0.0 < factor < 1.0:
            raise ValueError(f"degrade factor must be in (0, 1), got {factor}")
        self.state = "degraded"
        self.degrade_factor = factor
        self.faults += 1

    def restore(self) -> None:
        self.state = "up"
        self.degrade_factor = 1.0

    def reserve(self, now: float, nbytes: int, min_occupancy: float = 0.0) -> tuple[float, float]:
        """Occupy the least-busy lane for one message.

        Returns ``(start, header_exit)``:

        * ``start`` — when the head of the message enters the link (after
          queueing behind earlier flows on its lane);
        * ``header_exit`` — when the head emerges at the far end
          (``start + latency``); cut-through forwarding continues from
          there while the body still streams.

        The lane stays busy until ``start + occupancy`` where occupancy is
        the body serialization time (bounded below by ``min_occupancy`` to
        model per-message router overhead for tiny packets).
        """
        lanes = self._lanes
        if len(lanes) == 1:
            lane = 0
            free = lanes[0]
        else:
            free = min(lanes)
            lane = lanes.index(free)
        start = free if free > now else now
        latency = self.latency
        if self.state == "up":
            occupancy = nbytes / self.bandwidth
        else:
            occupancy = nbytes / self.effective_bandwidth
            latency += FAULT_LATENCY
            self.faulted_transfers += 1
        if occupancy < min_occupancy:
            occupancy = min_occupancy
        lanes[lane] = start + occupancy
        self.bytes_carried += nbytes
        self.transfers += 1
        return start, start + latency

    @property
    def available_at(self) -> float:
        """Earliest time any lane is free."""
        return min(self._lanes)

    @property
    def queue_depth(self) -> float:
        """Load signal used by adaptive routing (seconds of backlog)."""
        lanes = self._lanes
        return lanes[0] if len(lanes) == 1 else min(lanes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} bw={self.bandwidth:.3g} busy_until={self.available_at:.9f}>"
