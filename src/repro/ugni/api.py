"""``GNI_*``-flavoured facade bundling all per-job uGNI state.

A :class:`GniJob` is what a real application gets after
``GNI_CdmCreate``/``GNI_CdmAttach``: a communication domain spanning every
node in the job.  The raw-uGNI reference benchmarks (paper Figs. 1, 4, 6,
9a) and the uGNI machine layer are both written against this object.

It owns the per-node registration tables and the SMSG, MSGQ and RDMA
engines (``job.smsg``, ``job.msgq``, ``job.rdma``), which callers use
directly.  Its own methods mirror the ``GNI_CqCreate`` /
``GNI_MemRegister`` / ``GNI_MemDeregister`` calls the paper lists in
§II.B, plus the allocate-and-register pair of its Eq. 1.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.machine import Machine
from repro.hardware.memory import MemoryBlock
from repro.ugni.cq import CompletionQueue
from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.msgq import MsgqFabric
from repro.ugni.rdma import RdmaEngine
from repro.ugni.smsg import SmsgFabric


class GniJob:
    """A communication domain over the whole machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.registrations: dict[int, RegistrationTable] = {
            node.node_id: RegistrationTable(node.node_id, machine.config,
                                            sanitizer=machine.sanitizer)
            for node in machine.nodes
        }
        self.rdma = RdmaEngine(machine, self.registrations)
        self.smsg = SmsgFabric(machine)
        self.msgq = MsgqFabric(machine)

    # -- completion queues ------------------------------------------------------
    def CqCreate(self, capacity: int = 4096, name: str = "") -> CompletionQueue:
        return CompletionQueue(self.machine.engine, capacity, name)

    # -- memory -----------------------------------------------------------------
    def MemRegister(
        self,
        block: MemoryBlock,
        length: Optional[int] = None,
        cq: Optional[CompletionQueue] = None,
    ) -> tuple[MemHandle, float]:
        """Register node memory; returns ``(handle, cpu_cost)``."""
        return self.registrations[block.node_id].register(block, length, cq)

    def MemDeregister(self, handle: MemHandle) -> float:
        return self.registrations[handle.node_id].deregister(handle)

    # -- convenience for protocol code ---------------------------------------------
    def malloc_registered(
        self,
        node_id: int,
        nbytes: int,
        cq: Optional[CompletionQueue] = None,
    ) -> tuple[MemoryBlock, MemHandle, float]:
        """Allocate + register in one step; returns total cpu cost too.

        This is precisely the ``Tmalloc + Tregister`` pair from Eq. 1 of
        the paper — the per-message cost the memory pool eliminates.
        """
        node = self.machine.nodes[node_id]
        block = node.memory.malloc(nbytes)
        handle, reg_cost = self.MemRegister(block, cq=cq)
        return block, handle, self.machine.config.t_malloc(nbytes) + reg_cost

    def free_registered(self, block: MemoryBlock, handle: MemHandle) -> float:
        """Deregister + free; returns cpu cost."""
        cost = self.MemDeregister(handle)
        node = self.machine.nodes[block.node_id]
        node.memory.free(block)
        return cost + self.machine.config.t_free(block.size)
