"""Tests for the simulated uGNI layer: CQs, registration, SMSG, MSGQ, RDMA."""

import pytest

from repro.errors import UgniInvalidParam, UgniNoSpace, UgniNotRegistered
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.ugni import (
    CqEventKind,
    PostDescriptor,
    PostType,
)
from repro.ugni.api import GniJob
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.units import KB, MB, us


def make_job(n_nodes=4, cores_per_node=2, seed=0):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node), seed=seed)
    return m, GniJob(m)


class TestCompletionQueue:
    def test_fifo_order(self):
        m, job = make_job()
        cq = job.CqCreate()
        for i in range(3):
            cq.push(CqEntry(CqEventKind.POST_DONE, float(i), tag=i))
        assert [cq.get_event().tag for _ in range(3)] == [0, 1, 2]

    def test_empty_returns_none(self):
        m, job = make_job()
        cq = job.CqCreate()
        assert cq.get_event() is None

    def test_overrun_counted_not_dropped(self):
        m, job = make_job()
        cq = job.CqCreate(capacity=2)
        for i in range(3):
            cq.push(CqEntry(CqEventKind.POST_DONE, 0.0, tag=i))
        assert cq.overruns == 1
        # the data event is kept AND an explicit ERROR marker is queued
        assert len(cq) == 4
        kinds = [cq.get_event().kind for _ in range(4)]
        assert kinds.count(CqEventKind.ERROR) == 1

    def test_on_event_hook_fires(self):
        m, job = make_job()
        cq = job.CqCreate()
        fired = []
        cq.on_event = fired.append
        cq.push(CqEntry(CqEventKind.POST_DONE, 0.0))
        assert fired == [cq]

    def test_invalid_capacity(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.CqCreate(capacity=0)


class TestMemRegistration:
    def test_register_returns_cost_scaling_with_pages(self):
        m, job = make_job()
        node = m.nodes[0]
        small = node.memory.malloc(4 * KB)
        big = node.memory.malloc(1 * MB)
        _, cost_small = job.MemRegister(small)
        _, cost_big = job.MemRegister(big)
        assert cost_big > cost_small > 0

    @pytest.mark.sanitize_violations
    def test_deregister_invalidates(self):
        m, job = make_job()
        blk = m.nodes[0].memory.malloc(4 * KB)
        h, _ = job.MemRegister(blk)
        job.MemDeregister(h)
        assert not h.valid
        with pytest.raises(UgniInvalidParam):
            job.MemDeregister(h)

    def test_register_freed_block_rejected(self):
        m, job = make_job()
        blk = m.nodes[0].memory.malloc(64)
        m.nodes[0].memory.free(blk)
        with pytest.raises(UgniInvalidParam):
            job.MemRegister(blk)

    def test_registered_bytes_accounting(self):
        m, job = make_job()
        table = job.registrations[0]
        blk = m.nodes[0].memory.malloc(8 * KB)
        h, _ = job.MemRegister(blk)
        assert table.registered_bytes == h.length
        job.MemDeregister(h)
        assert table.registered_bytes == 0

    def test_malloc_registered_roundtrip(self):
        m, job = make_job()
        blk, h, cost = job.malloc_registered(1, 16 * KB)
        assert cost > m.config.t_register(16 * KB)  # includes malloc
        assert h.covers(blk.addr, 16 * KB)
        job.free_registered(blk, h)
        assert m.nodes[1].memory.used == 0


class TestSmsg:
    def test_delivery_and_payload(self):
        m, job = make_job()
        cpu = job.smsg.send(0, 2, tag=7, nbytes=88, payload={"hello": 1})
        assert cpu > 0
        m.engine.run()
        msg, rcpu = job.smsg.get_next(2)
        assert msg is not None
        assert msg.tag == 7 and msg.payload == {"hello": 1}
        assert msg.src_pe == 0
        assert rcpu > 0

    def test_small_message_latency_calibration(self):
        """8B SMSG inter-node ≈ 1.2us (paper's pure-uGNI number)."""
        m, job = make_job()
        job.smsg.send(0, 2, tag=0, nbytes=8)
        times = []
        job.smsg.rx_cq(2).on_event = lambda cq: times.append(m.engine.now)
        m.engine.run()
        assert len(times) == 1
        assert 0.8 * us < times[0] < 1.8 * us

    def test_oversize_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.smsg.send(0, 2, tag=0, nbytes=job.smsg.max_size + 1)

    def test_send_to_self_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.smsg.send(3, 3, tag=0, nbytes=8)

    def test_credit_exhaustion_and_release(self):
        m, job = make_job()
        size = job.smsg.max_size
        sent = 0
        with pytest.raises(UgniNoSpace):
            while True:
                job.smsg.send(0, 2, tag=0, nbytes=size)
                sent += 1
        assert sent > 0
        m.engine.run()
        # drain everything: credits release, sending works again
        for _ in range(sent):
            msg, _ = job.smsg.get_next(2)
            assert msg is not None
        job.smsg.send(0, 2, tag=0, nbytes=size)

    def test_mailbox_memory_grows_with_connections(self):
        m, job = make_job(n_nodes=4, cores_per_node=2)
        base = job.smsg.total_mailbox_memory
        job.smsg.send(0, 2, tag=0, nbytes=8)
        one = job.smsg.total_mailbox_memory
        job.smsg.send(0, 4, tag=0, nbytes=8)
        job.smsg.send(0, 6, tag=0, nbytes=8)
        three = job.smsg.total_mailbox_memory
        assert base == 0
        assert three == 3 * one

    def test_in_flight_accounting(self):
        m, job = make_job()
        for i in range(5):
            job.smsg.send(0, 2, tag=i, nbytes=32)
        assert job.smsg.in_flight() == 5
        m.engine.run()
        for _ in range(5):
            job.smsg.get_next(2)
        assert job.smsg.in_flight() == 0

    def test_intranode_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        job.smsg.send(0, 1, tag=0, nbytes=64)  # same node
        m.engine.run()
        msg, _ = job.smsg.get_next(1)
        assert msg is not None

    def test_fifo_per_connection(self):
        m, job = make_job()
        for i in range(10):
            job.smsg.send(0, 2, tag=i, nbytes=16)
        m.engine.run()
        tags = []
        while True:
            msg, _ = job.smsg.get_next(2)
            if msg is None:
                break
            tags.append(msg.tag)
        assert tags == list(range(10))


class TestMsgq:
    def test_delivery_via_node_queue(self):
        m, job = make_job(n_nodes=3, cores_per_node=2)
        job.msgq.send(0, 4, tag=3, nbytes=64, payload="x")
        m.engine.run()
        node_id = m.node_of_pe(4).node_id
        msg, cpu = job.msgq.get_next(node_id)
        assert msg is not None and msg.payload == "x" and msg.dst_pe == 4
        assert cpu > 0

    def test_msgq_slower_than_smsg(self):
        m, job = make_job()
        t_smsg = job.smsg.send(0, 2, tag=0, nbytes=64)
        t_msgq = job.msgq.send(0, 4, tag=0, nbytes=64)
        assert t_msgq > t_smsg

    def test_msgq_memory_scales_with_nodes_not_peers(self):
        m, job = make_job(n_nodes=4, cores_per_node=2)
        for dst in (2, 4, 6):
            job.msgq.send(0, dst, tag=0, nbytes=8)
        # three destination nodes touched -> 3 queue regions
        assert job.msgq.total_queue_memory == 3 * m.config.msgq_node_bytes

    def test_oversize_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.msgq.send(0, 2, tag=0, nbytes=job.msgq.max_size + 1)

    def test_queue_overflow(self):
        m, job = make_job()
        with pytest.raises(UgniNoSpace):
            for _ in range(100000):
                job.msgq.send(0, 2, tag=0, nbytes=job.msgq.max_size)


class TestRdma:
    def _registered_pair(self, job, m, size, src=0, dst=1, dst_cq=None):
        src_blk = m.nodes[src].memory.malloc(size)
        dst_blk = m.nodes[dst].memory.malloc(size)
        src_h, _ = job.MemRegister(src_blk)
        dst_h, _ = job.MemRegister(dst_blk, cq=dst_cq)
        return src_h, dst_h

    def test_put_generates_local_and_remote_events(self):
        m, job = make_job()
        src_cq, dst_cq = job.CqCreate(), job.CqCreate()
        lh, rh = self._registered_pair(job, m, 4 * KB, dst_cq=dst_cq)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=src_cq)
        cpu = job.rdma.post(0, desc, fma=True)
        assert cpu > 0
        m.engine.run()
        local = src_cq.get_event()
        remote = dst_cq.get_event()
        assert local.kind is CqEventKind.POST_DONE
        assert remote.kind is CqEventKind.REMOTE_DATA
        # data must land before/with the local completion
        assert remote.time <= local.time

    def test_get_generates_no_remote_event(self):
        """The uGNI property that forces the paper's ACK_TAG message."""
        m, job = make_job()
        src_cq, dst_cq = job.CqCreate(), job.CqCreate()
        lh, rh = self._registered_pair(job, m, 4 * KB, dst_cq=dst_cq)
        desc = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=src_cq)
        job.rdma.post(0, desc, fma=False)
        m.engine.run()
        assert src_cq.get_event() is not None
        assert dst_cq.get_event() is None

    @pytest.mark.sanitize_violations
    def test_unregistered_memory_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        job.MemDeregister(rh)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=4 * KB)
        with pytest.raises(UgniNotRegistered):
            job.rdma.post(0, desc, fma=True)

    def test_out_of_bounds_transaction_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=8 * KB)
        with pytest.raises(UgniNotRegistered):
            job.rdma.post(0, desc, fma=True)

    def test_post_from_wrong_node_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=4 * KB)
        with pytest.raises(UgniInvalidParam):
            job.rdma.post(2, desc, fma=True)

    def test_zero_length_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        with pytest.raises(UgniInvalidParam):
            PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=0)

    def test_bte_completes_after_fma_for_small(self):
        m, job = make_job()
        done = {}
        for name, fma in [("fma", True), ("bte", False)]:
            m2, job2 = make_job()
            cq = job2.CqCreate()
            lh, rh = self._registered_pair(job2, m2, 512)
            desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                                  length=512, src_cq=cq)
            job2.rdma.post(0, desc, fma=fma)
            m2.engine.run()
            done[name] = cq.get_event().time
        assert done["fma"] < done["bte"]

    def test_post_best_switches_at_crossover(self):
        m, job = make_job()
        cfg = m.config
        # below crossover: FMA (CPU cost grows with size)
        lh, rh = self._registered_pair(job, m, 64 * KB)
        small = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=1 * KB)
        big = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=64 * KB)
        cpu_small = job.rdma.post_best(0, small)
        cpu_big = job.rdma.post_best(0, big)
        # FMA for 1K: cpu includes per-byte; BTE for 64K: flat post cost
        assert cpu_small > cfg.fma_issue_cpu
        assert cpu_big == pytest.approx(cfg.bte_post_cpu)

    def test_local_node_post_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        cq = job.CqCreate()
        src_blk = m.nodes[0].memory.malloc(4 * KB)
        dst_blk = m.nodes[0].memory.malloc(4 * KB)
        lh, _ = job.MemRegister(src_blk)
        rh, _ = job.MemRegister(dst_blk)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=cq)
        job.rdma.post(0, desc, fma=True)
        m.engine.run()
        assert cq.get_event() is not None
