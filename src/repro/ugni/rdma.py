"""One-sided transactions: ``GNI_PostFma`` and ``GNI_PostRdma``.

A :class:`PostDescriptor` names registered memory on both sides (exactly
the information the paper's rendezvous control message carries: "memory
address, memory handler and size", §III.C).  The engine validates both
registrations, hands the transfer to the right NIC unit, and pushes
completion events:

* a ``POST_DONE`` entry on the initiator's source CQ when the transaction
  completes locally;
* for PUT, a ``REMOTE_DATA`` entry on the destination region's CQ (if the
  registration supplied one).  A GET produces **no** remote event — the
  uGNI property that forces the paper's ACK_TAG message.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import UgniInvalidParam
from repro.hardware.machine import Machine
from repro.hardware.nic import TransferKind
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.types import CqEventKind, PostType

_desc_ids = itertools.count()


@dataclass
class PostDescriptor:
    """Everything GNI needs to execute one FMA/BTE transaction."""

    post_type: PostType
    local_mem: MemHandle
    remote_mem: MemHandle
    length: int
    local_addr: Optional[int] = None  # defaults to region start
    remote_addr: Optional[int] = None
    #: CQ for the local POST_DONE event
    src_cq: Optional[CompletionQueue] = None
    #: force BTE ('rdma') or FMA ('fma'); None = size-based choice
    channel: Optional[str] = None
    #: opaque context returned in the completion event (first_operand in GNI)
    context: Any = None
    id: int = field(default_factory=lambda: next(_desc_ids))

    def __post_init__(self) -> None:
        if self.local_addr is None:
            self.local_addr = self.local_mem.addr
        if self.remote_addr is None:
            self.remote_addr = self.remote_mem.addr
        if self.length <= 0:
            raise UgniInvalidParam(f"post length must be positive, got {self.length}")


class RdmaEngine:
    """Executes post descriptors against the simulated NICs."""

    def __init__(self, machine: Machine, registrations: dict[int, RegistrationTable]):
        self.machine = machine
        #: node_id -> registration table (owned by the NIC handle layer)
        self.registrations = registrations
        self.posts_completed = 0
        #: posts that ended in a fault-injected ``ERROR`` completion
        self.posts_failed = 0

    def _validate(self, desc: PostDescriptor, initiator_node: int) -> None:
        if desc.local_mem.node_id != initiator_node:
            raise UgniInvalidParam(
                f"local_mem is on node {desc.local_mem.node_id}, "
                f"posted from node {initiator_node}"
            )
        self.registrations[desc.local_mem.node_id].check(
            desc.local_mem, desc.local_addr, desc.length)
        self.registrations[desc.remote_mem.node_id].check(
            desc.remote_mem, desc.remote_addr, desc.length)

    def post(self, initiator_node: int, desc: PostDescriptor, fma: bool,
             at: Optional[float] = None) -> float:
        """``GNI_PostFma`` (``fma=True``) / ``GNI_PostRdma``.

        Returns initiator CPU seconds.
        """
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            # post-time use-after-free screen, recorded before the
            # registration table's own loud validation below
            san.on_rdma_check(desc, initiator_node)
        self._validate(desc, initiator_node)
        node = machine.nodes[initiator_node]
        peer = machine.nodes[desc.remote_mem.node_id]
        put = desc.post_type is PostType.PUT

        if fma:
            kind = TransferKind.FMA_PUT if put else TransferKind.FMA_GET
        else:
            kind = TransferKind.BTE_PUT if put else TransferKind.BTE_GET

        faults = machine.faults
        if (faults is not None and peer.node_id != node.node_id
                and faults.rdma_fails(node.node_id, peer.node_id)):
            return self._post_failed(node, peer, desc, kind, faults, at)

        def on_local_cq(t: float) -> None:
            self.posts_completed += 1
            if desc.src_cq is not None:
                desc.src_cq.push(CqEntry(
                    CqEventKind.POST_DONE, t, tag=desc.id, data=desc,
                    source=initiator_node))

        if san is not None:
            token = san.on_rdma_post(desc, initiator_node)
            inner_local = on_local_cq

            def on_local_cq(t: float, _inner=inner_local, _tok=token) -> None:
                san.on_rdma_retire(_tok, t)
                _inner(t)

        on_remote = None
        if put and desc.remote_mem.cq is not None:
            remote_cq = desc.remote_mem.cq

            def on_remote(t: float) -> None:
                remote_cq.push(CqEntry(
                    CqEventKind.REMOTE_DATA, t, tag=desc.id, data=desc,
                    source=initiator_node))

        if peer.node_id == node.node_id:
            # local post: loopback path, still generates a local CQ event
            def deliver(t: float) -> None:
                on_local_cq(t)
                if on_remote is not None:
                    on_remote(t)

            return node.nic.loopback_send(desc.length, deliver, at=at)

        return node.nic.post_transfer(
            kind, peer.coord, desc.length,
            on_local_cq=on_local_cq, on_remote_data=on_remote, at=at)

    def _post_failed(self, node, peer, desc: PostDescriptor, kind,
                     faults, at: Optional[float]) -> float:
        """Fault-injected transaction: error completion instead of data."""
        self.posts_failed += 1
        san = self.machine.sanitizer
        token = san.on_rdma_post(desc, node.node_id) if san is not None else None

        def on_error(t: float) -> None:
            if token is not None:
                san.on_rdma_retire(token, t)
            if desc.src_cq is not None:
                desc.src_cq.push(CqEntry(
                    CqEventKind.ERROR, t, tag=desc.id, data=desc,
                    source=node.node_id))

        return node.nic.failed_transfer(
            kind, peer.coord, desc.length, on_error,
            frac=faults.config.rdma_error_progress, at=at)

    def post_best(self, initiator_node: int, desc: PostDescriptor,
                  at: Optional[float] = None) -> float:
        """Post using the size-appropriate unit (paper §III.C policy)."""
        if desc.channel == "fma":
            return self.post(initiator_node, desc, fma=True, at=at)
        if desc.channel == "rdma":
            return self.post(initiator_node, desc, fma=False, at=at)
        cfg = self.machine.config
        use_fma = (
            cfg.rdma_kind_for(desc.length) == "fma"
            and desc.length <= cfg.fma_max_bytes
        )
        return self.post(initiator_node, desc, fma=use_fma, at=at)
