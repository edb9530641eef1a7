"""uDREG-style registration cache over real uGNI registrations.

Cray MPI avoids re-registering rendezvous buffers with uDREG [Pritchard et
al. 2011], which the paper cites as the reason plain MPI large-message
latency is competitive — and whose "overhead and pitfalls" [Wyckoff & Wu]
motivate the Charm++ pool instead.

No machine layer builds this class: the MPI layer models uDREG with
:class:`repro.mpish.udreg.UdregCache`, the rdma layer pins through its
own ``PinDownCache``, and the uGNI layer needs no cache because its
memory pool is registered once.  Only tests and the traced perfbench
probe (``perfbench/job.py``) construct it; deleting it waits for a change
to perfbench, whose ``memory.regcache`` layer rule and metrics name this
module.  Behaviourally:

* **hit** (same buffer range re-used, e.g. a ping-pong on one buffer) —
  pay only the lookup;
* **miss** (fresh buffer every call, e.g. the MPI-based Charm++ machine
  layer allocating a new message each receive) — pay full registration,
  possibly plus an eviction's deregistration.

Entries in use by an in-flight transaction are *pinned* and never evicted.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import UgniInvalidParam
from repro.hardware.memory import MemoryBlock
from repro.ugni.api import GniJob
from repro.ugni.memreg import MemHandle


class _Entry:
    __slots__ = ("handle", "block", "pins")

    def __init__(self, handle: MemHandle, block: MemoryBlock):
        self.handle = handle
        self.block = block
        self.pins = 0


class RegistrationCache:
    """Per-node LRU cache of uGNI registrations."""

    def __init__(self, gni: GniJob, node_id: int, capacity: int | None = None):
        self.gni = gni
        self.node_id = node_id
        self.config = gni.machine.config
        self.capacity = capacity or self.config.udreg_capacity
        if self.capacity < 1:
            raise UgniInvalidParam("registration cache capacity must be >= 1")
        self._san = gni.machine.sanitizer
        #: key: (addr, size) -> entry, in LRU order (last = most recent)
        self._entries: "OrderedDict[tuple[int, int], _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: stale entries purged because their handle was invalidated
        #: behind the cache's back (e.g. a direct MemDeregister)
        self.stale_purges = 0
        obs = gni.machine.observer
        if obs is not None:
            obs.register_source(f"regcache/n{node_id}", self._observe_stats)

    def _observe_stats(self) -> dict:
        """Pin-cache hit/miss + occupancy pulled by the metrics registry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_purges": self.stale_purges,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }

    def lookup(self, block: MemoryBlock, pin: bool = True) -> tuple[MemHandle, float]:
        """Get a valid registration covering ``block``; returns cpu cost.

        ``pin=True`` marks the entry in use; call :meth:`unpin` when the
        transaction completes so eviction becomes possible again.
        """
        if block.node_id != self.node_id:
            raise UgniInvalidParam(
                f"block of node {block.node_id} looked up on node {self.node_id}"
            )
        if block.freed:
            raise UgniInvalidParam(f"lookup of freed block {block!r}")
        cost = self.config.udreg_lookup_cpu
        key = (block.addr, block.size)
        entry = self._entries.get(key)
        if entry is not None:
            if entry.handle.valid:
                self._entries.move_to_end(key)
                self.hits += 1
                if pin:
                    entry.pins += 1
                return entry.handle, cost
            # the handle was invalidated behind the cache's back; a pinned
            # entry means an in-flight transaction just lost its
            # registration, which must be loud, not a silent re-register
            if entry.pins:
                if self._san is not None:
                    self._san.report(
                        "pinned-eviction", f"regcache[{self.node_id}]",
                        f"entry {key} invalidated with {entry.pins} pin(s)")
                raise UgniInvalidParam(
                    f"registration cache entry {key} on node {self.node_id} "
                    f"was invalidated while pinned ({entry.pins} pin(s))"
                )
            del self._entries[key]
            self.stale_purges += 1

        # miss: evict if at capacity (oldest unpinned entry)
        self.misses += 1
        while len(self._entries) >= self.capacity:
            victim_key = next(
                (k for k, e in self._entries.items() if e.pins == 0), None)
            if victim_key is None:
                # everything pinned: exceed capacity rather than deadlock,
                # as uDREG does under pressure
                break
            victim = self._entries.pop(victim_key)
            if victim.handle.valid:
                cost += self.gni.MemDeregister(victim.handle)
            else:
                self.stale_purges += 1
            self.evictions += 1

        handle, reg_cost = self.gni.MemRegister(block)
        cost += reg_cost
        if self._san is not None:
            self._san.root_region(handle, f"regcache[{self.node_id}]")
        entry = _Entry(handle, block)
        if pin:
            entry.pins += 1
        self._entries[key] = entry
        return handle, cost

    def unpin(self, handle: MemHandle) -> None:
        """Release a pin taken by :meth:`lookup`."""
        for entry in self._entries.values():
            if entry.handle is handle:
                if entry.pins <= 0:
                    raise UgniInvalidParam("unpin without matching pin")
                entry.pins -= 1
                return
        raise UgniInvalidParam("unpin of handle not in cache")

    def invalidate(self, block: MemoryBlock) -> float:
        """Drop the entry for a block being freed (memory-hook behaviour).

        uDREG hooks the allocator to invalidate registrations when memory
        is returned; forgetting this is the classic correctness pitfall
        [Wyckoff & Wu], which we therefore enforce in tests.
        """
        key = (block.addr, block.size)
        entry = self._entries.pop(key, None)
        if entry is None:
            return 0.0
        if entry.pins:
            if self._san is not None:
                self._san.report(
                    "pinned-eviction", f"regcache[{self.node_id}]",
                    f"invalidate of {key} with {entry.pins} pin(s)")
            self._entries[key] = entry  # keep the pinned entry intact
            raise UgniInvalidParam("invalidating a pinned registration")
        if not entry.handle.valid:
            self.stale_purges += 1
            return 0.0
        return self.gni.MemDeregister(entry.handle)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
