"""Simulated user-level Generic Network Interface (uGNI).

This is the API surface the paper's machine layer is written against
(paper §II.B), reproduced over the simulated Gemini NIC:

* :class:`~repro.ugni.cq.CompletionQueue` — ``GNI_CqCreate`` /
  ``GNI_CqGetEvent`` event notification.
* :class:`~repro.ugni.memreg.RegistrationTable` — ``GNI_MemRegister`` /
  ``GNI_MemDeregister`` with real cost accounting (the expense the memory
  pool optimization removes).
* :class:`~repro.ugni.smsg.SmsgFabric` — per-peer mailbox short messages
  (``GNI_SmsgSendWTag`` / ``GNI_SmsgGetNextWTag``) with credit flow control
  and the per-connection memory footprint that motivates MSGQ.
* :class:`~repro.ugni.msgq.MsgqFabric` — the per-node shared-queue
  alternative: memory scales with nodes, latency is worse.
* :class:`~repro.ugni.rdma.RdmaEngine` — ``GNI_PostFma`` / ``GNI_PostRdma``
  one-sided PUT/GET requiring registered memory on both sides.
* :mod:`repro.ugni.api` — :class:`~repro.ugni.api.GniJob`, the
  communication domain bundling all of the above for one job.

CPU-time convention: every call that a real PE would burn cycles in returns
the number of seconds the caller must charge to its PE.  The uGNI layer
never charges PEs itself — it does not know who is calling.
"""

from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.msgq import MsgqFabric
from repro.ugni.rdma import PostDescriptor, RdmaEngine
from repro.ugni.smsg import SmsgConnection, SmsgFabric, SmsgMessage
from repro.ugni.types import CqEventKind, PostType

__all__ = [
    "CompletionQueue",
    "CqEntry",
    "CqEventKind",
    "MemHandle",
    "MsgqFabric",
    "PostDescriptor",
    "PostType",
    "RdmaEngine",
    "RegistrationTable",
    "SmsgConnection",
    "SmsgFabric",
    "SmsgMessage",
]
