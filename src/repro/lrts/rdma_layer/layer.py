"""The RDMA machine layer core: dispatch, RC send paths, rendezvous.

Protocol crossover (deliberately different from uGNI's SMSG/FMA/BTE and
Cray MPI's 8 KB eager threshold):

* ``total <= rdma_inline_max`` (220 B) — **inline**: the payload rides in
  the work request itself; no buffer is touched on either side.
* ``total <= rdma_eager_max`` (16 KB) — **eager**: sender copies into its
  registered staging pool, receiver copies out of a pre-posted buffer.
* larger — **rendezvous**: both sides pin bounce windows through the
  pin-down cache and the receiver pulls the payload with one RDMA READ,
  zero-copy on the wire path.

All two-sided traffic flows over RC queue pairs with hardware
retransmission, so unlike the uGNI layer there is no optional software
reliability mode — loss recovery is part of the fabric model.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.converse.scheduler import Message, PE
from repro.errors import LrtsError
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer
from repro.lrts.messages import CONTROL_BYTES, LRTS_ENVELOPE
from repro.lrts.rdma_layer.collectives import PersistentWindowsMixin
from repro.lrts.rdma_layer.config import RdmaLayerConfig
from repro.lrts.rdma_layer.endpoints import RcQueuePair, RdmaFabric
from repro.lrts.ugni_layer.intranode import IntranodeMixin
from repro.memory.pxshm import PxshmFabric
from repro.ugni.rdma import PostDescriptor
from repro.ugni.types import PostType


class _Rndv:
    """State of one rendezvous transfer, passed by reference in control."""

    __slots__ = ("msg", "total", "src_rank", "dst_rank",
                 "src_block", "src_handle", "dst_block", "dst_handle")

    def __init__(self, msg: Message, total: int, src_rank: int,
                 dst_rank: int):
        self.msg = msg
        self.total = total
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.src_block = None
        self.src_handle = None
        self.dst_block = None
        self.dst_handle = None


class RdmaMachineLayer(PersistentWindowsMixin, IntranodeMixin,
                       GpuTransportMixin, LrtsLayer):
    """Charm++ machine layer on a Slingshot/InfiniBand-class fabric."""

    name = "rdma"
    supports_persistent = True

    def __init__(self, machine: Machine,
                 layer_config: Optional[RdmaLayerConfig] = None):
        super().__init__()
        self.machine = machine
        self.cfg = machine.config
        self.lcfg = layer_config or RdmaLayerConfig()
        self.fabric = RdmaFabric(machine, self.lcfg)
        self._eager_max = (self.lcfg.eager_max
                           if self.lcfg.eager_max is not None
                           else self.cfg.rdma_eager_max)
        self._persistent: dict[int, Any] = {}
        # counters
        self.inline_sent = 0
        self.eager_sent = 0
        self.rendezvous_sent = 0
        self.persistent_sent = 0
        self.intranode_sent = 0
        #: application messages lost to RC retry exhaustion (faults only)
        self.rc_lost = 0
        #: rendezvous transfers abandoned after the RDMA retry budget
        self.rndv_failed = 0
        #: persistent WRITEs abandoned after the RDMA retry budget
        self.persistent_failed = 0

    # ------------------------------------------------------------------ #
    # LrtsInit
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        assert self.conv is not None
        self.pxshm = PxshmFabric(
            self.machine,
            single_copy=(self.lcfg.intranode == "pxshm_single"))
        self._proto_hid = self.conv.register_handler(self._proto_handler)
        self._steps = {
            "rts": self._on_rts,
            "get_done": self._on_get_done,
            "get_failed": self._on_get_failed,
            "fin": self._on_fin,
            "rndv_fail": self._on_rndv_fail,
            "p_setup": self._on_p_setup,
            "p_ready": self._on_p_ready,
            "p_done_local": self._on_p_done_local,
            "p_notify": self._on_p_notify,
            "p_failed": self._on_p_failed,
            "p_teardown": self._on_p_teardown,
        }
        self.fabric.on_receive = self._on_rc_receive
        self.fabric.on_giveup = self._on_rc_giveup
        san = self.machine.sanitizer
        if san is not None:
            san.add_quiescence_check(self._sanitize_scan)

    def _sanitize_scan(self, san) -> None:
        """Layer-level lifecycle checks run when the engine drains."""
        qps = self.fabric.qps
        for (src, dst), qp in qps.items():
            # every give-up retires its seq, so even under faults a parked
            # packet at quiescence is a stall
            if qp.rx.slots:
                san.report(
                    "undelivered-message", f"rdma.qp[{src}->{dst}]",
                    f"{len(qp.rx.slots)} packet(s) stuck in the reorder "
                    f"window (expected seq {qp.rx.watermark + 1})")
        if self.machine.faults is not None:
            # injected loss legitimately strands protocol state (give-up
            # paths); the other lifecycle complaints would be false positives
            return
        for (src, dst), qp in qps.items():
            if qp.backlog:
                san.report(
                    "undelivered-message", f"rdma.qp[{src}->{dst}]",
                    f"{len(qp.backlog)} WQE(s) still queued "
                    f"(state={qp.state}, credits={qp.credits})")
        for handle in self._persistent.values():
            impl = handle.impl
            if impl.queued:
                san.report(
                    "stuck-persistent", f"rdma.persist[{handle.id}]",
                    f"{len(impl.queued)} queued send(s), channel never ready")
            elif impl.closing:
                san.report(
                    "stuck-persistent", f"rdma.persist[{handle.id}]",
                    "destroy deferred forever (channel never quiesced)")
        for node_id, cache in self.fabric.pin_caches.items():
            if cache.live:
                san.report(
                    "pool-leak", f"rdma.pincache[n{node_id}]",
                    f"{cache.live} pinned bounce buffer(s) never released "
                    f"at quiescence")

    # ------------------------------------------------------------------ #
    # LrtsSyncSend
    # ------------------------------------------------------------------ #
    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        total = msg.nbytes + LRTS_ENVELOPE
        obs = self._obs
        if msg.device:
            self._gpu_send(src_pe, dst_rank, msg)
            return
        if (self.machine.same_node(src_pe.rank, dst_rank)
                and self.lcfg.intranode != "fabric"):
            self.intranode_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "intranode", msg, self.machine.engine.now)
            self._send_intranode(src_pe, dst_rank, msg)
            return
        if total <= self.cfg.rdma_inline_max:
            self.inline_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "inline", msg, self.machine.engine.now)
            self._rc_send(src_pe, dst_rank, "inline", total, msg,
                          extra_cpu=0.0)
            return
        if total <= self._eager_max:
            self.eager_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "eager", msg, self.machine.engine.now)
            setup = self.fabric.eager_pool(src_pe.rank)
            self._rc_send(src_pe, dst_rank, "eager", total, msg,
                          extra_cpu=setup + self.cfg.t_memcpy(total))
            return
        self.rendezvous_sent += 1
        if obs is not None:
            obs.on_lrts("rdma", "rendezvous", msg, self.machine.engine.now)
        self._send_rendezvous(src_pe, dst_rank, msg, total)

    # -- RC send helpers ------------------------------------------------------
    def _rc_send(self, pe: PE, dst_rank: int, tag: str, nbytes: int,
                 payload: Any, extra_cpu: float) -> None:
        pe.charge(self.cfg.rdma_post_cpu + extra_cpu, "overhead")
        qp = self.fabric.qp(pe.rank, dst_rank, at=pe.vtime)
        qp.post_send(tag, nbytes, payload, at=pe.vtime)

    def _rc_control(self, pe: PE, dst_rank: int, step: str,
                    state: Any) -> None:
        self._rc_send(pe, dst_rank, step, CONTROL_BYTES, state,
                      extra_cpu=0.0)

    # ------------------------------------------------------------------ #
    # Receive side (engine context on the destination's node)
    # ------------------------------------------------------------------ #
    def _on_rc_receive(self, qp: RcQueuePair, tag: str, nbytes: int,
                       payload: Any, t: float) -> None:
        pe = self.conv.pes[qp.dst]
        if tag == "inline":
            self.delivered += 1
            pe.enqueue(payload, recv_cpu=self.cfg.rdma_recv_cpu)
        elif tag == "eager":
            self.delivered += 1
            pe.enqueue(payload, recv_cpu=(self.cfg.rdma_recv_cpu
                                          + self.cfg.t_memcpy(nbytes)))
        else:
            pe.enqueue(
                Message(handler=self._proto_hid, src_pe=qp.src,
                        dst_pe=qp.dst, nbytes=0, payload=(tag, payload)),
                recv_cpu=self.cfg.rdma_recv_cpu)

    def _on_rc_giveup(self, qp: RcQueuePair, tag: str, nbytes: int,
                      payload: Any) -> None:
        """A WQE was abandoned; whatever it carried is lost."""
        self.rc_lost += 1
        obs = self._obs
        if obs is not None:
            obs.on_recovery("rc_giveup", f"qp[{qp.src}->{qp.dst}]",
                            self.machine.engine.now)

    # ------------------------------------------------------------------ #
    # Protocol handler (runs on the PE that owns each step)
    # ------------------------------------------------------------------ #
    def _proto_handler(self, pe: PE, message: Message) -> None:
        step, state = message.payload
        try:
            fn = self._steps[step]
        except KeyError:  # pragma: no cover - defensive
            raise LrtsError(f"unknown protocol step {step!r}") from None
        fn(pe, state)

    # ------------------------------------------------------------------ #
    # Rendezvous (RTS, then a READ-based pull)
    # ------------------------------------------------------------------ #
    def _send_rendezvous(self, src_pe: PE, dst_rank: int, msg: Message,
                         total: int) -> None:
        state = _Rndv(msg, total, src_pe.rank, dst_rank)
        cache = self.fabric.pin_caches[src_pe.node.node_id]
        state.src_block, state.src_handle, cpu = cache.acquire(total)
        src_pe.charge(cpu, "overhead")
        self._rc_control(src_pe, dst_rank, "rts", state)

    def _pin_release(self, pe: PE, block, handle) -> None:
        cache = self.fabric.pin_caches[pe.node.node_id]
        pe.charge(cache.release(block, handle), "overhead")

    def _on_rts(self, pe: PE, state: _Rndv) -> None:
        """Receiver: pin a window, then pull the payload (GET)."""
        cache = self.fabric.pin_caches[pe.node.node_id]
        state.dst_block, state.dst_handle, cpu = cache.acquire(state.total)
        pe.charge(cpu, "overhead")
        desc = PostDescriptor(
            post_type=PostType.GET,
            local_mem=state.dst_handle,
            remote_mem=state.src_handle,
            length=state.total,
            local_addr=state.dst_block.addr,
            remote_addr=state.src_block.addr,
        )

        def on_done(t: float) -> None:
            pe.enqueue(
                Message(handler=self._proto_hid, src_pe=pe.rank,
                        dst_pe=pe.rank, nbytes=0,
                        payload=("get_done", state)),
                recv_cpu=self.cfg.cq_event_cpu)

        def on_error(t: float) -> None:
            pe.enqueue(
                Message(handler=self._proto_hid, src_pe=pe.rank,
                        dst_pe=pe.rank, nbytes=0,
                        payload=("get_failed", state)),
                recv_cpu=self.cfg.cq_event_cpu)

        cpu = self.fabric.post_rdma(pe.node.node_id, "get", desc,
                                    on_done, on_error, at=pe.vtime)
        pe.charge(cpu, "overhead")

    def _on_get_done(self, pe: PE, state: _Rndv) -> None:
        """Receiver: data landed; deliver, release, tell the sender."""
        self._pin_release(pe, state.dst_block, state.dst_handle)
        state.dst_block = state.dst_handle = None
        self.deliver(pe.rank, state.msg, recv_cpu=self.cfg.rdma_recv_cpu)
        self._rc_control(pe, state.src_rank, "fin", state)

    def _on_fin(self, pe: PE, state: _Rndv) -> None:
        """Sender: transfer acknowledged; the bounce window recycles."""
        if state.src_block is not None:
            self._pin_release(pe, state.src_block, state.src_handle)
            state.src_block = state.src_handle = None

    def _on_get_failed(self, pe: PE, state: _Rndv) -> None:
        """Receiver: the READ died after all retries; the message is lost."""
        self.rndv_failed += 1
        obs = self._obs
        if obs is not None:
            obs.on_recovery("get_failed", f"pe{pe.rank}", self.machine.engine.now)
        self._pin_release(pe, state.dst_block, state.dst_handle)
        state.dst_block = state.dst_handle = None
        self._rc_control(pe, state.src_rank, "rndv_fail", state)

    def _on_rndv_fail(self, pe: PE, state: _Rndv) -> None:
        """Peer aborted the rendezvous: release whatever we still pin."""
        if pe.rank == state.src_rank and state.src_block is not None:
            self._pin_release(pe, state.src_block, state.src_handle)
            state.src_block = state.src_handle = None
        elif pe.rank == state.dst_rank and state.dst_block is not None:
            self._pin_release(pe, state.dst_block, state.dst_handle)
            state.dst_block = state.dst_handle = None

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        s = super().stats()
        s.update(
            inline_sent=self.inline_sent,
            eager_sent=self.eager_sent,
            rendezvous_sent=self.rendezvous_sent,
            persistent_sent=self.persistent_sent,
            intranode_sent=self.intranode_sent,
            rc_lost=self.rc_lost,
            rndv_failed=self.rndv_failed,
            persistent_failed=self.persistent_failed,
        )
        if self.cfg.gpus_per_node > 0:
            s.update(self.gpu_stats())
        s.update(self.fabric.stats())
        return s
