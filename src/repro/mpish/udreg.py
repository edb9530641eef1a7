"""Lightweight uDREG model for the MPI layer.

This is the registration cache the simulation actually runs: it gives
MPI rendezvous its same-buffer-fast / fresh-buffer-slow behaviour.
Unlike :class:`repro.memory.regcache.RegistrationCache` (which operates
on real memory blocks, and which no machine layer builds), it tracks
*buffer identities* supplied by callers: the
pure-MPI benchmarks pass a stable key to model "same send/recv buffer" and
a fresh key per call to model "different buffers" (the two MPI curves of
Fig. 9a); the MPI-based Charm++ layer always passes fresh keys because the
runtime allocates a new message buffer per receive — which is precisely why
its large-message path pays registration every time.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.hardware.config import MachineConfig


class UdregCache:
    """LRU cache of registered buffer identities, with full cost model."""

    def __init__(self, config: MachineConfig, capacity: int | None = None):
        self.config = config
        self.capacity = capacity or config.udreg_capacity
        self._entries: "OrderedDict[Hashable, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable, nbytes: int) -> float:
        """Ensure ``key`` is registered for ``nbytes``; returns cpu cost.

        Registration cost is capped at one pipeline chunk: Cray MPI
        overlaps the registration of chunk *k* of a very large rendezvous
        with the transfer of chunk *k-1*, so only the first chunk's
        pinning sits on the critical path.
        """
        cfg = self.config
        cost = cfg.udreg_lookup_cpu
        size = self._entries.get(key)
        if size is not None and size >= nbytes:
            self._entries.move_to_end(key)
            self.hits += 1
            return cost
        self.misses += 1
        reg_bytes = min(nbytes, cfg.mpi_pipeline_chunk)
        if size is not None:
            # re-register larger
            cost += cfg.t_deregister(min(size, cfg.mpi_pipeline_chunk))
            del self._entries[key]
        while len(self._entries) >= self.capacity:
            _, old_size = self._entries.popitem(last=False)
            cost += cfg.t_deregister(min(old_size, cfg.mpi_pipeline_chunk))
            self.evictions += 1
        cost += cfg.t_register(reg_bytes)
        self._entries[key] = nbytes
        return cost

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
