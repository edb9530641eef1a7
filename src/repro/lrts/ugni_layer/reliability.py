"""Transport-error recovery for the uGNI machine layer.

Enabled via ``UgniLayerConfig(reliability=True)``; the default is off and
the layer's fault-free behaviour is bit-identical with or without this
module loaded.  Three mechanisms:

* **SMSG retransmission** — every outgoing SMSG (application smalls and
  protocol control messages alike, except acks) is wrapped in a
  :class:`_RelPacket` carrying a per-``(src, dst)`` sequence number.  The
  receiver acks each copy with an *unreliable, unwrapped*
  :data:`REL_ACK_TAG` message and suppresses duplicate sequence numbers
  with a per-pair :class:`~repro.lrts.seqwindow.SeqWindow`, giving
  exactly-once delivery on top of a lossy fabric.  Unacked packets are
  retransmitted on a :class:`~repro.converse.timers.TimerService` timer
  with bounded exponential backoff; after ``UgniLayerConfig.max_retries``
  attempts the packet is abandoned, counted in ``rel_failed``, and its
  sequence number retired from the receiver's window, which keeps that
  window bounded by the reordering depth.
* **FMA/BTE post retry** — :meth:`_post_guarded` routes rendezvous and
  persistent posts through :meth:`_await_post` with an error callback:
  an ``ERROR`` completion (fault-injected transaction error) re-posts the
  descriptor after backoff instead of crashing the run.
* **Persistent-channel re-arm** — a failed persistent PUT may leave the
  pinned send window in an undefined state, so the retry first
  deregisters and re-registers the source buffer
  (:meth:`_persist_rearm`) before re-posting.

The sequence-number field rides inside the modelled 32-byte SMSG header,
so wrapping changes no wire sizes; reliability's cost is the ack traffic,
the timer machinery, and the extra dispatch on the receive path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.converse.scheduler import Message, PE
from repro.converse.timers import TimerService
from repro.errors import UgniTransactionError
from repro.lrts.messages import CHARM_SMALL_TAG, CONTROL_BYTES
from repro.lrts.seqwindow import SeqWindow

#: smsg tag for delivery acknowledgements (never wrapped, never retried:
#: a lost ack is recovered by the sender's retransmit + receiver dedup)
REL_ACK_TAG = 60


@dataclass
class _RelPacket:
    """Reliability envelope around one SMSG message."""

    seq: int
    src: int
    dst: int
    #: the wrapped message's original smsg tag
    tag: int
    payload: Any
    #: precomputed ``(src, dst, seq)`` — the ack payload and the tx-table
    #: key.  Built once at wrap time so the retransmit and receive paths
    #: never rebuild the tuple.
    key: tuple = None
    #: precomputed ``(src, dst)`` connection pair for receiver-side dedup
    pair: tuple = None


@dataclass
class _RelTx:
    """Sender-side record of an unacked packet."""

    pkt: _RelPacket
    nbytes: int
    attempts: int = 1
    timer: Any = None


class ReliabilityMixin:
    """Mixed into :class:`UgniMachineLayer`; all state is layer-owned."""

    # -- lifecycle ------------------------------------------------------------
    def _rel_setup(self) -> None:
        """Called from ``_setup`` when ``lcfg.reliability`` is on."""
        self._rel_on = True
        self._timers = TimerService(self.conv)
        #: next sequence number per (src, dst)
        self._rel_next_seq: dict[tuple[int, int], int] = {}
        #: unacked packets: (src, dst, seq) -> record
        self._rel_tx: dict[tuple[int, int, int], _RelTx] = {}
        #: receiver-side duplicate suppression per (src, dst)
        self._rel_seen: defaultdict[tuple[int, int], SeqWindow] = \
            defaultdict(SeqWindow)

    def _rel_trace(self, event: str, where: Any = None, **detail: Any) -> None:
        obs = self._obs
        if obs is not None:
            # counts into recovery/<event>; give-up events also trigger an
            # automatic flight-recorder dump
            obs.on_recovery(event, where, self.machine.engine.now, **detail)

    def _rel_backoff(self, attempt: int) -> float:
        """Bounded exponential backoff before retry ``attempt`` (1-based)."""
        lcfg = self.lcfg
        return min(
            lcfg.retry_backoff_base * lcfg.retry_backoff_factor ** (attempt - 1),
            lcfg.retry_backoff_max,
        )

    # -- sender side ----------------------------------------------------------
    def _rel_wrap(self, pe: PE, dst_rank: int, tag: int, nbytes: int,
                  payload: Any) -> _RelPacket:
        """Assign a sequence number and arm the retransmit timer."""
        pair = (pe.rank, dst_rank)
        seq = self._rel_next_seq.get(pair, 0)
        self._rel_next_seq[pair] = seq + 1
        pkt = _RelPacket(seq, pe.rank, dst_rank, tag, payload,
                         key=(pe.rank, dst_rank, seq), pair=pair)
        rec = _RelTx(pkt, nbytes)
        self._rel_tx[pkt.key] = rec
        self._rel_arm_timer(rec)
        return pkt

    def _rel_arm_timer(self, rec: _RelTx) -> None:
        rec.timer = self._timers.call_after(
            self._rel_backoff(rec.attempts), rec.pkt.src,
            lambda pe, rec=rec: self._rel_retry(pe, rec))

    def _rel_retry(self, pe: PE, rec: _RelTx) -> None:
        pkt = rec.pkt
        key = pkt.key
        if key not in self._rel_tx:
            return  # acked while the timer was in flight
        if rec.attempts >= self.lcfg.max_retries:
            del self._rel_tx[key]
            self.rel_failed += 1
            self._rel_seen[pkt.pair].retire(pkt.seq)
            self._rel_trace("give_up", where=pkt.pair,
                            seq=pkt.seq, attempts=rec.attempts)
            return
        rec.attempts += 1
        self.rel_retransmits += 1
        self._rel_trace("retransmit", where=pkt.pair,
                        seq=pkt.seq, attempt=rec.attempts)
        self._smsg_push(pe, pkt.dst, pkt.tag, rec.nbytes, pkt)
        self._rel_arm_timer(rec)

    def _on_rel_ack(self, pe: PE, ack: tuple[int, int, int]) -> None:
        """Sender PE: the receiver has the packet — stop retransmitting."""
        rec = self._rel_tx.pop(ack, None)
        if rec is not None and rec.timer is not None:
            rec.timer.cancel()

    # -- receiver side --------------------------------------------------------
    def _on_rel_rx(self, pe: PE, pkt: _RelPacket) -> None:
        """Receiver PE: ack, deduplicate, then dispatch the inner message."""
        # ack every copy — the ack for an earlier copy may itself be lost
        self.rel_acks += 1
        self._smsg_push(pe, pkt.src, REL_ACK_TAG, CONTROL_BYTES, pkt.key)
        rx = self._rel_seen[pkt.pair]
        if rx.seen(pkt.seq):
            self.rel_duplicates += 1
            self._rel_trace("duplicate_dropped", where=pkt.pair, seq=pkt.seq)
            return
        rx.accept(pkt.seq)
        if len(rx.slots) > self.rel_window_peak:
            self.rel_window_peak = len(rx.slots)
        if pkt.tag == CHARM_SMALL_TAG:
            self.deliver(pe.rank, pkt.payload, recv_cpu=0.0)
        else:
            self._dispatch_step(pe, self._step_for_tag(pkt.tag), pkt.payload)

    # -- guarded FMA/BTE posts ------------------------------------------------
    def _post_guarded(self, pe: PE, desc, on_done: Callable[[float], None],
                      rearm: Optional[Callable[[PE, Any], None]] = None,
                      on_failed: Optional[Callable[[PE, Exception], None]] = None,
                      ) -> None:
        """Post ``desc``, retrying on ``ERROR`` completions when enabled.

        Without reliability this is exactly the historical
        ``_await_post`` + ``post_best`` + ``charge`` sequence (an error
        completion then raises :class:`UgniTransactionError`).  With it,
        each error re-posts after backoff, running ``rearm`` first when
        given (persistent channels re-register their send window).

        When retries are exhausted the post is abandoned: ``post_failures``
        is bumped and ``on_failed(pe, exc)`` runs in PE scheduler context
        with a :class:`UgniTransactionError` describing the give-up, so the
        initiating protocol step can release buffers and notify its peer
        instead of leaking a waiter that never completes.  Passing
        ``on_failed=None`` means the caller has no state to reclaim; the
        abandonment is still counted and traced.
        """
        if not self._rel_on:
            self._await_post(desc, on_done)
            cpu = self.gni.rdma.post_best(pe.node.node_id, desc, at=pe.vtime)
            pe.charge(cpu, "overhead")
            return

        attempts = [0]

        def repost(pe2: PE) -> None:
            if rearm is not None:
                rearm(pe2, desc)
            cpu = self.gni.rdma.post_best(pe2.node.node_id, desc, at=pe2.vtime)
            pe2.charge(cpu, "overhead")

        def on_error(t: float) -> None:
            attempts[0] += 1
            if attempts[0] > self.lcfg.max_retries:
                self.post_failures += 1
                self._rel_trace("post_give_up", where=pe.rank,
                                desc=desc.id, attempts=attempts[0])
                if on_failed is not None:
                    exc = UgniTransactionError(
                        f"post {desc.id} abandoned after "
                        f"{self.lcfg.max_retries} retries"
                    )
                    # the upcall must run in PE context (it charges time and
                    # sends control messages), not in this CQ callback
                    self._post_failed_upcall(pe, on_failed, exc)
                return
            self.post_retries += 1
            self._rel_trace("post_retry", where=pe.rank,
                            desc=desc.id, attempt=attempts[0])
            self._timers.call_after(self._rel_backoff(attempts[0]),
                                    pe.rank, repost)

        self._await_post(desc, on_done, on_error=on_error)
        cpu = self.gni.rdma.post_best(pe.node.node_id, desc, at=pe.vtime)
        pe.charge(cpu, "overhead")

    def _post_failed_upcall(self, pe: PE,
                            on_failed: Callable[[PE, Exception], None],
                            exc: Exception) -> None:
        pe.enqueue(
            Message(handler=self._proto_hid, src_pe=pe.rank, dst_pe=pe.rank,
                    nbytes=0, payload=("post_failed", (on_failed, exc))),
            recv_cpu=self.cfg.cq_event_cpu,
        )

    def _on_post_failed(self, pe: PE, payload) -> None:
        on_failed, exc = payload
        on_failed(pe, exc)

    def _persist_rearm(self, pe: PE, handle, desc) -> None:
        """Re-register a persistent channel's send window after a failed PUT."""
        impl = handle.impl
        pe.charge(self.gni.MemDeregister(impl.src_handle), "overhead")
        new_handle, cost = self.gni.MemRegister(impl.src_block)
        pe.charge(cost, "overhead")
        san = self.machine.sanitizer
        if san is not None:
            san.root_region(new_handle, f"persistent[{handle.id}].src")
        impl.src_handle = new_handle
        desc.local_mem = new_handle
        self.persistent_rearms += 1
        self._rel_trace("persist_rearm", where=pe.rank, channel=handle.id)
