"""Give-up paths of the reliability layer: exhausted retries must
terminate, be reported, and leak nothing.

Regression tests for two silent-loss bugs:

* ``_post_guarded`` used to abandon a post without telling anyone — the
  initiating protocol step waited forever and its rendezvous buffers
  leaked.  Now ``on_failed`` runs in PE context with a
  :class:`UgniTransactionError`, ``post_failures``/``rndv_failed``/
  ``persistent_failed`` are bumped, and both sides reclaim their buffers
  (the :data:`RNDV_FAIL_TAG` control message).
* ``_rel_seen`` grew a per-pair seen-set forever; it is now a cumulative
  watermark plus the out-of-order sequence numbers above it
  (:class:`~repro.lrts.seqwindow.SeqWindow`), and a give-up retires its
  sequence number so an abandoned packet leaves no permanent gap.
"""

import pytest

from repro.apps.pingpong import charm_pingpong
from repro.converse.scheduler import Message
from repro.faults import FaultConfig
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.lrts.seqwindow import SeqWindow
from repro.units import KB

#: small retry budget + fast backoff so give-up happens quickly
FAST = dict(reliability=True, max_retries=3,
            retry_backoff_base=2e-6, retry_backoff_max=8e-6)


def make(layer_config, faults=None, seed=0):
    m = Machine(n_nodes=4,
                config=tiny_config(cores_per_node=2).replace(observe=True),
                seed=seed)
    conv, layer = make_runtime(machine=m, n_pes=m.n_pes, layer="ugni",
                               layer_config=layer_config, faults=faults)
    return m, conv, layer


def recoveries(m, event):
    """How often the observer saw one recovery event."""
    return m.observer.snapshot().get(f"counter/recovery/{event}", 0)


class TestSmsgGiveUp:
    def test_total_loss_terminates_and_reports(self):
        """100% drop: every packet exhausts max_retries; the run must
        still reach quiescence (no retry timer lives past the give-up)
        with every abandonment counted and the tx table empty."""
        m, conv, layer = make(UgniLayerConfig(**FAST),
                              faults=FaultConfig(smsg_drop_rate=1.0))
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(5):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)  # raises if retries never stop
        s = layer.stats()
        assert s["rel_failed"] == 5
        assert delivered == []
        assert layer._rel_tx == {}  # every record retired at give-up
        # every abandoned seq was retired from the receiver's window
        assert layer._rel_seen
        assert all(not rx.slots for rx in layer._rel_seen.values())
        assert recoveries(m, "give_up") == 5
        # mailbox credit reclaimed when each dropped delivery resolved
        assert all(c.credits_used == 0
                   for c in layer.gni.smsg._connections.values())
        assert m.engine.peek() == float("inf")  # truly quiescent


class TestPostGiveUp:
    @pytest.mark.parametrize("mode", ["get", "put"])
    def test_abandoned_rendezvous_reclaims_both_sides(self, mode):
        """100% RDMA errors: the FMA/BTE post gives up, the failing side
        reclaims its buffer and the RNDV_FAIL control message lets the
        peer reclaim the one it pinned — nothing leaks, nothing hangs."""
        m, conv, layer = make(UgniLayerConfig(rendezvous=mode, **FAST),
                              faults=FaultConfig(rdma_error_rate=1.0))
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64 * KB)))
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert s["post_failures"] == 1
        assert s["post_retries"] == layer.lcfg.max_retries
        assert s["rndv_failed"] == 1
        assert delivered == []  # lost and reported, not silently hung
        assert s["pool_live_blocks"] == 0  # both sides reclaimed
        assert s["pool_live_bytes"] == 0
        assert recoveries(m, "post_give_up") == 1
        assert s["rel_failed"] == 0  # control SMSGs were unaffected
        assert m.engine.peek() == float("inf")

    def test_abandoned_persistent_send_keeps_channel(self):
        """A persistent PUT that exhausts retries is counted as lost; the
        channel's pinned buffers persist by design (no leak of pool
        blocks, no dangling waiter)."""
        m, conv, layer = make(UgniLayerConfig(**FAST),
                              faults=FaultConfig(rdma_error_rate=1.0))
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))

        def boot(pe, msg):
            handle = layer.create_persistent(pe, 2, 4 * KB)
            layer.send_persistent(pe, handle,
                                  Message(h, pe.rank, 2, 2 * KB))

        hb = conv.register_handler(boot)
        conv.send_from_outside(0, Message(hb, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert s["persistent_failed"] == 1
        assert s["post_failures"] == 1
        assert s["persistent_rearms"] == s["post_retries"] > 0
        assert delivered == []
        assert s["pool_live_blocks"] == 0
        assert recoveries(m, "persist_send_failed") == 1
        assert m.engine.peek() == float("inf")


class TestDedupWindow:
    def test_watermark_semantics(self):
        rx = SeqWindow()
        assert not rx.seen(0)
        rx.accept(0)
        rx.accept(1)
        assert rx.watermark == 1 and rx.slots == {}
        rx.accept(5)
        rx.accept(3)
        assert rx.seen(5) and rx.seen(3) and not rx.seen(2)
        assert set(rx.slots) == {3, 5}
        rx.accept(2)
        assert rx.watermark == 3 and set(rx.slots) == {5}
        rx.accept(4)
        assert rx.watermark == 5 and rx.slots == {}
        # everything at or below the watermark counts as seen forever
        assert all(rx.seen(s) for s in range(6))

    def test_accept_releases_parked_items_in_order(self):
        rx = SeqWindow()
        assert rx.accept(2, "c") == []
        assert rx.accept(1, "b") == []
        assert rx.accept(0, "a") == ["a", "b", "c"]
        assert rx.accept(3, "d") == ["d"]

    def test_retired_gap_releases_parked_items(self):
        rx = SeqWindow()
        for seq in range(1, 5):  # seq 0 abandoned by its sender
            rx.accept(seq, seq)
        assert rx.watermark == -1 and len(rx.slots) == 4
        assert rx.retire(0) == [1, 2, 3, 4]
        assert rx.watermark == 4 and rx.slots == {}

    def test_retire_ahead_of_the_watermark(self):
        rx = SeqWindow()
        assert rx.retire(1) == []  # seq 0 still in flight
        assert rx.seen(1) and rx.watermark == -1
        assert rx.accept(2, "c") == []
        # the retired seq is skipped, not delivered
        assert rx.accept(0, "a") == ["a", "c"]
        assert rx.watermark == 2 and rx.slots == {}

    def test_retire_is_idempotent(self):
        rx = SeqWindow()
        rx.accept(1, "b")
        assert rx.retire(0) == ["b"]
        assert rx.retire(0) == []
        assert rx.retire(1) == []  # already arrived: a no-op
        assert rx.watermark == 1 and rx.slots == {}

    def test_straggler_of_retired_seq_is_seen(self):
        rx = SeqWindow()
        rx.retire(0)
        rx.retire(3)
        # a copy stalled in the fabric when its sender gave up is a duplicate
        assert rx.seen(0) and rx.seen(3)
        assert not rx.seen(1)

    def test_window_stays_bounded_under_sustained_loss(self):
        """The receiver's dedup memory must stay O(window), not O(total
        messages) — this is the regression test for the unbounded
        seen-set."""
        lc = UgniLayerConfig(reliability=True, max_retries=30,
                             retry_backoff_base=5e-6, retry_backoff_max=10e-6)
        r = charm_pingpong(64, layer_config=lc,
                           faults=FaultConfig(smsg_drop_rate=0.15), seed=3)
        assert r.stats["rel_duplicates"] > 0  # dedup actually exercised
        assert r.stats["rel_window_peak"] <= 256
        # with in-order pingpong traffic the window should be tiny
        assert r.stats["rel_window_peak"] <= 4
