"""Allocation machinery above raw node memory.

Three pieces:

* :class:`~repro.memory.mempool.MemoryPool` — the message pool of §IV.B:
  pre-allocated, pre-registered arenas from which the runtime serves every
  Charm++ message, eliminating ``Tmalloc + Tregister`` from the send path.
* :class:`~repro.memory.regcache.RegistrationCache` — a uDREG-like cache
  (what Cray MPI uses) with LRU eviction and pinning over real uGNI
  registrations.  No machine layer builds it: MPI rendezvous gets its
  same-buffer-fast / fresh-buffer-slow behaviour (paper Fig. 9a) from
  :class:`repro.mpish.udreg.UdregCache`.  Only tests and perfbench's
  traced probe use it, and it stays until perfbench stops naming it.
* :class:`~repro.memory.pxshm.PxshmFabric` — POSIX-shared-memory intra-node
  queues with double-copy and sender-side single-copy modes (Fig. 8c).
"""

from repro.memory.mempool import MemoryPool, PoolBlock
from repro.memory.pxshm import PxshmFabric
from repro.memory.regcache import RegistrationCache

__all__ = ["MemoryPool", "PoolBlock", "RegistrationCache", "PxshmFabric"]
