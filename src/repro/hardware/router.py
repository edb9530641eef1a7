"""The torus network: link ownership, routing, and transfer timing.

:class:`TorusNetwork` computes when a message's first and last byte arrive,
given the current occupancy of every link on its path.  Two routing modes:

* **dimension-ordered** — deterministic X→Y→Z minimal routing;
* **adaptive** (default, matching Gemini's packet-adaptive router) — at
  each hop, pick the productive direction whose outgoing link has the
  smallest backlog (ties break deterministically by direction index, so
  runs stay reproducible without consuming RNG state).

Links are created lazily: a 16×16×16 torus has 24,576 directed links, most
of which a given experiment never touches.
"""

from __future__ import annotations

from typing import Callable

from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
from repro.hardware.topology import Coord, Torus3D


class TransferTiming:
    """Result of a network transfer computation."""

    __slots__ = ("depart", "head_arrival", "arrival", "hops")

    def __init__(self, depart: float, head_arrival: float, arrival: float, hops: int):
        self.depart = depart  # when the message left the source NIC port
        self.head_arrival = head_arrival  # first byte at destination
        self.arrival = arrival  # last byte at destination
        self.hops = hops

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TransferTiming depart={self.depart:.9f} "
            f"arrive={self.arrival:.9f} hops={self.hops}>"
        )


class TorusNetwork:
    """All inter-node links plus per-node injection/ejection ports."""

    def __init__(self, topology: Torus3D, config: MachineConfig):
        self.topology = topology
        self.config = config
        self._links: dict[tuple[Coord, Coord], Link] = {}
        self._inject: dict[Coord, Link] = {}
        self._eject: dict[Coord, Link] = {}
        #: (at, dst) -> (next_coord, link) for hops whose direction choice
        #: is deterministic (single minimal direction, or dimension-ordered
        #: mode); adaptive multi-direction hops and fault-avoidance are
        #: load-dependent and never cached.  Link objects are stable — a
        #: fault mutates the Link in place — so cached entries stay valid.
        self._hop1: dict[tuple[Coord, Coord], tuple[Coord, Link]] = {}
        #: observability hub (:mod:`repro.observe`), set by the machine
        #: that owns this network; ``None`` skips the transfer hooks
        self.observer = None
        #: total messages routed (diagnostics)
        self.messages_routed = 0
        #: links currently marked down/degraded (fault-injection state)
        self._faulted: set[tuple[Coord, Coord]] = set()
        #: messages routed while any link fault was active
        self.degraded_routes = 0

    # -- link access -----------------------------------------------------------
    def link(self, frm: Coord, to: Coord) -> Link:
        key = (frm, to)
        lk = self._links.get(key)
        if lk is None:
            lk = Link(key, self.config.link_bandwidth, self.config.hop_latency)
            self._links[key] = lk
        return lk

    def injection_port(self, at: Coord) -> Link:
        lk = self._inject.get(at)
        if lk is None:
            lk = Link(("inject", at), self.config.link_bandwidth,
                      self.config.nic_latency, lanes=self.config.nic_port_lanes)
            self._inject[at] = lk
        return lk

    def ejection_port(self, at: Coord) -> Link:
        lk = self._eject.get(at)
        if lk is None:
            lk = Link(("eject", at), self.config.link_bandwidth,
                      self.config.nic_latency, lanes=self.config.nic_port_lanes)
            self._eject[at] = lk
        return lk

    # -- fault state (driven by repro.faults) ------------------------------------
    def fail_link(self, frm: Coord, to: Coord) -> None:
        """Mark one directed link hard-down (a flap's falling edge)."""
        self.link(frm, to).fail()
        self._faulted.add((frm, to))

    def degrade_link(self, frm: Coord, to: Coord, factor: float) -> None:
        """Run one directed link at ``factor`` of nominal bandwidth."""
        self.link(frm, to).degrade(factor)
        self._faulted.add((frm, to))

    def restore_link(self, frm: Coord, to: Coord) -> None:
        self.link(frm, to).restore()
        self._faulted.discard((frm, to))

    @property
    def route_mode(self) -> str:
        """Active routing policy: ``"adaptive"`` or ``"dimension-ordered"``.

        With any link fault outstanding, the router falls back from
        adaptive (backlog-driven) to deterministic dimension-ordered
        routing with down-link avoidance — the graceful-degradation mode
        Gemini drops into when adaptive routing would keep hashing traffic
        onto a flapping lane.
        """
        if self._faulted or not self.config.adaptive_routing:
            return "dimension-ordered"
        return "adaptive"

    # -- routing ---------------------------------------------------------------
    def _next_direction(self, at: Coord, dst: Coord) -> Coord:
        topo = self.topology
        dirs = topo.minimal_directions(at, dst)
        if self._faulted:
            # degraded mode: dimension order, stepping around a down link
            # when another productive direction is still up
            for d in dirs:
                if self.link(at, topo.neighbor(at, d)).state != "down":
                    return d
            return dirs[0]
        if len(dirs) == 1 or not self.config.adaptive_routing:
            return dirs[0]
        # adaptive: least-backlogged outgoing productive link
        best = dirs[0]
        best_load = self.link(at, topo.neighbor(at, best)).queue_depth
        for d in dirs[1:]:
            load = self.link(at, topo.neighbor(at, d)).queue_depth
            if load < best_load:
                best, best_load = d, load
        return best

    def transfer(
        self,
        now: float,
        src: Coord,
        dst: Coord,
        nbytes: int,
        bandwidth_cap: float | None = None,
        min_occupancy: float | None = None,
    ) -> TransferTiming:
        """Route one message and reserve every link it crosses.

        ``bandwidth_cap`` models a source that cannot feed the wire at full
        link rate (FMA window stores, BTE engine limits): the last byte
        cannot arrive before ``first-byte arrival + nbytes / cap``.

        ``min_occupancy`` sets a per-link floor (per-message router
        overhead) — used for small-message rate limiting.
        """
        cfg = self.config
        min_occ = cfg.nic_msg_gap if min_occupancy is None else min_occupancy
        self.messages_routed += 1

        # injection at the source NIC
        inj = self._inject.get(src)
        if inj is None:
            inj = self.injection_port(src)
        _, t = inj.reserve(now, nbytes, min_occ)
        depart = t

        t, hops = self._walk(t, src, dst, nbytes, min_occ)

        # ejection into the destination NIC
        ej = self._eject.get(dst)
        if ej is None:
            ej = self.ejection_port(dst)
        _, t = ej.reserve(t, nbytes, min_occ)
        head_arrival = t

        path_bw = cfg.link_bandwidth
        if bandwidth_cap is not None and bandwidth_cap < path_bw:
            path_bw = bandwidth_cap
        arrival = head_arrival + nbytes / path_bw
        obs = self.observer
        if obs is not None:
            obs.on_net_transfer(src, dst, nbytes, now, depart, hops)
        return TransferTiming(depart, head_arrival, arrival, hops)

    def _walk(self, t: float, src: Coord, dst: Coord, nbytes: int,
              min_occ: float) -> tuple[float, int]:
        """Reserve every link from ``src`` to ``dst``; returns (time, hops).

        The hop loop behind :meth:`transfer`.
        """
        hops = 0
        at = src
        topo = self.topology
        links = self._links
        faulted = self._faulted
        adaptive = self.config.adaptive_routing
        hop1 = self._hop1
        while at != dst:
            if not faulted:
                hop = hop1.get((at, dst))
                if hop is not None:
                    nxt, lk = hop
                    _, t = lk.reserve(t, nbytes, min_occ)
                    at = nxt
                    hops += 1
                    continue
            dirs = topo.minimal_directions(at, dst)
            deterministic = not adaptive or len(dirs) == 1
            if not faulted and deterministic:
                d = dirs[0]
            else:
                d = self._next_direction(at, dst)
            nxt = topo.neighbor(at, d)
            lk = links.get((at, nxt))
            if lk is None:
                lk = self.link(at, nxt)
            if not faulted and deterministic:
                hop1[(at, dst)] = (nxt, lk)
            _, t = lk.reserve(t, nbytes, min_occ)
            at = nxt
            hops += 1
        return t, hops

    # -- diagnostics ------------------------------------------------------------
    def total_bytes_carried(self) -> int:
        return sum(lk.bytes_carried for lk in self._links.values())

class DragonflyNetwork(TorusNetwork):
    """Dragonfly fabric on top of the shared link/fault machinery.

    Differences from the torus network:

    * inter-group (optical) router links carry their own, longer latency
      (:attr:`MachineConfig.dragonfly_global_latency`).

    Routing is minimal (l-g-l); with any link fault outstanding the
    network falls back to minimal routing with down-link avoidance, as the
    torus does in its degraded mode.
    """

    def link(self, frm, to) -> Link:
        key = (frm, to)
        lk = self._links.get(key)
        if lk is None:
            latency = (self.config.dragonfly_global_latency
                       if self.topology.is_global_link(frm, to)
                       else self.config.hop_latency)
            lk = Link(key, self.config.link_bandwidth, latency)
            self._links[key] = lk
        return lk
