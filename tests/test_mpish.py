"""Tests for the MPI subset: matching, protocols, ordering."""

import pytest

from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.mpish import ANY, MpiWorld
from repro.mpish.comm import recv, send
from repro.mpish.matching import MatchEngine, Arrival
from repro.mpish.udreg import UdregCache
from repro.sim.process import Process
from repro.units import KB, MB, us


def make_world(n_nodes=2, cores_per_node=2, seed=0):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node),
                seed=seed)
    return m, MpiWorld(m)


class TestMatchEngine:
    def _eng(self):
        return MatchEngine(0, tiny_config())

    def _arr(self, src=1, tag=5, seq=0):
        return Arrival(src, 0, tag, 64, None, 0.0, seq=seq)

    def test_exact_match(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=1, tag=5))
        arr, _ = eng.match_unexpected(1, 5)
        assert arr is not None
        assert eng.unexpected_depth == 0

    def test_wildcard_source_and_tag(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=3, tag=9))
        arr, _ = eng.match_unexpected(ANY, ANY)
        assert arr is not None and arr.src == 3

    def test_no_match_leaves_queue(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=1, tag=5))
        arr, _ = eng.match_unexpected(2, 5)
        assert arr is None
        assert eng.unexpected_depth == 1

    def test_fifo_among_matches(self):
        eng = self._eng()
        a = self._arr(src=1, tag=5)
        b = self._arr(src=1, tag=5)
        eng.add_unexpected(a)
        eng.add_unexpected(b)
        got, _ = eng.match_unexpected(1, 5)
        assert got is a

    def test_scan_cost_grows_with_queue_depth(self):
        eng = self._eng()
        for _ in range(50):
            eng.add_unexpected(self._arr(src=1, tag=1))
        # match something at the back
        eng.add_unexpected(self._arr(src=2, tag=2))
        _, deep_cost = eng.match_unexpected(2, 2)
        eng2 = self._eng()
        eng2.add_unexpected(self._arr(src=2, tag=2))
        _, shallow_cost = eng2.match_unexpected(2, 2)
        assert deep_cost > shallow_cost

    def test_probe_does_not_pop(self):
        eng = self._eng()
        eng.add_unexpected(self._arr())
        arr, _ = eng.match_unexpected(ANY, ANY, pop=False)
        assert arr is not None
        assert eng.unexpected_depth == 1


class TestUdreg:
    def test_hit_after_miss(self):
        c = UdregCache(tiny_config(), capacity=4)
        miss = c.lookup("buf", 64 * KB)
        hit = c.lookup("buf", 64 * KB)
        assert miss > hit
        assert c.hit_rate == pytest.approx(0.5)

    def test_smaller_request_hits_existing(self):
        c = UdregCache(tiny_config())
        c.lookup("buf", 64 * KB)
        assert c.lookup("buf", 4 * KB) == pytest.approx(
            tiny_config().udreg_lookup_cpu)

    def test_larger_request_reregisters(self):
        cfg = tiny_config()
        c = UdregCache(cfg)
        c.lookup("buf", 4 * KB)
        cost = c.lookup("buf", 64 * KB)
        assert cost > cfg.t_register(64 * KB)

    def test_eviction(self):
        c = UdregCache(tiny_config(), capacity=2)
        c.lookup("a", 1024)
        c.lookup("b", 1024)
        c.lookup("c", 1024)
        assert c.evictions == 1


class TestPointToPoint:
    def _pingpong(self, size, iters=3, same_buf=True, n_nodes=2):
        m, world = make_world(n_nodes=n_nodes,
                              cores_per_node=1 if n_nodes > 1 else 2)
        lat = []

        def rank0():
            for i in range(iters):
                t0 = m.engine.now
                key = "b0" if same_buf else None
                yield from send(world, 0, 1, tag=0, nbytes=size, buf_key=key)
                yield from recv(world, 0, src=1, tag=1,
                                buf_key="b0" if same_buf else None)
                lat.append((m.engine.now - t0) / 2)

        def rank1():
            for i in range(iters):
                yield from recv(world, 1, src=0, tag=0,
                                buf_key="b1" if same_buf else None)
                yield from send(world, 1, 0, tag=1, nbytes=size,
                                buf_key="b1" if same_buf else None)

        Process(m.engine, rank0())
        Process(m.engine, rank1())
        m.engine.run(max_events=100000)
        assert len(lat) == iters
        return lat[-1]  # steady state

    def test_small_message_latency(self):
        """Pure MPI 8B one-way ≈ 1.4-2us (a bit above pure uGNI's 1.2)."""
        lat = self._pingpong(8)
        assert 1.2 * us < lat < 2.5 * us

    def test_latency_monotone_in_size(self):
        sizes = [8, 512, 4 * KB, 64 * KB, 1 * MB]
        lats = [self._pingpong(s) for s in sizes]
        assert all(b > a for a, b in zip(lats, lats[1:]))

    def test_rendezvous_same_buffer_faster_than_fresh(self):
        """Fig 9a: MPI same send/recv buffer beats different buffers >8K."""
        same = self._pingpong(64 * KB, same_buf=True)
        diff = self._pingpong(64 * KB, same_buf=False)
        assert diff > same * 1.2

    def test_intranode_delivery(self):
        lat = self._pingpong(4 * KB, n_nodes=1)
        assert lat > 0

    def test_intranode_large_uses_xpmem_single_copy(self):
        m, world = make_world(n_nodes=1, cores_per_node=2)
        done = []

        def rank0():
            yield from send(world, 0, 1, tag=0, nbytes=256 * KB)

        def rank1():
            arr = yield from recv(world, 1, src=0, tag=0)
            done.append(m.engine.now)

        Process(m.engine, rank0())
        Process(m.engine, rank1())
        m.engine.run()
        assert done
        # single copy: latency ≈ xpmem_sync + one memcpy, well under 2x memcpy
        assert done[0] < m.config.xpmem_sync_cpu + 2 * m.config.t_memcpy(256 * KB)

    def test_payload_arrives_intact(self):
        m, world = make_world()
        got = []

        def sender():
            yield from send(world, 0, 2, tag=7, nbytes=100,
                            payload={"k": [1, 2, 3]})

        def receiver():
            arr = yield from recv(world, 2, src=0, tag=7)
            got.append(arr.payload)

        Process(m.engine, sender())
        Process(m.engine, receiver())
        m.engine.run()
        assert got == [{"k": [1, 2, 3]}]

    def test_unexpected_then_late_recv(self):
        m, world = make_world()
        got = []

        def sender():
            yield from send(world, 0, 2, tag=1, nbytes=64, payload="early")

        def receiver():
            yield 50 * us  # message arrives long before the recv posts
            arr = yield from recv(world, 2, src=0, tag=1)
            got.append((arr.payload, m.engine.now))

        Process(m.engine, sender())
        Process(m.engine, receiver())
        m.engine.run()
        assert got and got[0][0] == "early"
        assert got[0][1] >= 50 * us

    def test_nonovertaking_order_same_pair(self):
        """Messages of wildly different sizes still arrive in send order."""
        m, world = make_world()
        got = []

        def sender():
            # big eager first (slow), tiny second (fast): order must hold
            for nbytes, payload in ((8 * KB, "big"), (8, "small")):
                req, _cpu = world.isend(0, 2, 0, nbytes, payload=payload)
                if not req.completed:
                    yield req.done

        def receiver():
            for _ in range(2):
                arr = yield from recv(world, 2, src=0, tag=0)
                got.append(arr.payload)

        Process(m.engine, sender())
        Process(m.engine, receiver())
        m.engine.run(max_events=100000)
        assert got == ["big", "small"]

    def test_isend_returns_before_delivery(self):
        m, world = make_world()
        req, cpu = world.isend(0, 2, 0, 64, payload="x")
        assert req.completed  # eager: buffered completion
        assert world.unexpected_count(2) == 0  # not yet arrived
        m.engine.run()
        assert world.unexpected_count(2) == 1

    def test_on_unexpected_hook_fires(self):
        m, world = make_world()
        seen = []
        world.on_unexpected[2] = seen.append
        world.isend(0, 2, 0, 64)
        m.engine.run()
        assert len(seen) == 1 and seen[0].dst == 2
