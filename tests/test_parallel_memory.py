"""Memory pool and registration cache driven from events on many nodes.

Allocator state is touched from events belonging to several nodes,
interleaved in one run of the engine.  These tests drive
:class:`MemoryPool` and :class:`RegistrationCache` through event
schedules spread across nodes and assert the accounting stays exact —
including the property that no alloc/free interleaving ever
double-allocates overlapping space, and that the same schedule replays
to the same allocation sequence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.memory import MemoryPool, RegistrationCache
from repro.ugni.api import GniJob
from repro.units import KB

N_NODES = 4
TICK = 1e-6


def _make():
    m = Machine(n_nodes=N_NODES, config=tiny_config(cores_per_node=1))
    return m, GniJob(m)


def _drive_pools(ops):
    """Schedule ``(node, size, start, hold)`` allocs across nodes.

    Every alloc checks it does not overlap any live block of its pool,
    holds the block for ``hold`` ticks, then frees it from a later
    event.  Returns the exact allocation trace.
    """
    m, job = _make()
    engine = m.engine
    pools = {n: MemoryPool(job, node_id=n, initial_bytes=64 * KB,
                           expand_bytes=64 * KB) for n in range(N_NODES)}
    live = {n: [] for n in range(N_NODES)}
    trace = []

    def do_free(node, blk):
        live[node].remove(blk)
        pools[node].free(blk)

    def do_alloc(node, size, hold):
        blk, _ = pools[node].alloc(size)
        for other in live[node]:
            assert blk.end <= other.addr or other.end <= blk.addr, (
                f"double-allocated overlap on node {node}: "
                f"{blk!r} vs {other!r}")
        live[node].append(blk)
        trace.append((node, blk.addr, blk.size))
        engine.call_at(engine.now + hold * TICK, do_free, node, blk)

    for node, size, start, hold in ops:
        engine.call_at(start * TICK, do_alloc, node, size, hold)
    engine.run()

    for n, pool in pools.items():
        assert not live[n]
        pool.check_invariants()
        assert pool.live_bytes == 0
    return trace, pools


class TestMultiNodePool:
    OPS = st.lists(
        st.tuples(
            st.integers(0, N_NODES - 1),   # owning node
            st.integers(1, 32 * 1024),     # size
            st.integers(1, 40),            # start tick
            st.integers(1, 30),            # hold ticks
        ),
        max_size=40,
    )

    @settings(max_examples=25, deadline=None)
    @given(OPS)
    def test_property_no_double_alloc_across_nodes(self, ops):
        trace, _ = _drive_pools(ops)
        # a rerun of the same schedule allocates the exact same
        # addresses in the exact same order
        assert _drive_pools(ops)[0] == trace

    def test_expansion_driven_from_two_nodes(self):
        # nodes 0 and 3 overflow their arenas in the same simulated
        # instant; each pool expands independently
        ops = [(node, 48 * 1024, t, 50)
               for t in (1, 2) for node in (0, 3)]
        _, pools = _drive_pools(ops)
        assert pools[0].expansions == 1
        assert pools[3].expansions == 1
        assert pools[1].expansions == pools[2].expansions == 0


def _drive_caches(capacity=2, rounds=3):
    """Interleave lookups of distinct blocks on every node."""
    m, job = _make()
    engine = m.engine
    caches = {n: RegistrationCache(job, node_id=n, capacity=capacity)
              for n in range(N_NODES)}
    blocks = {n: [m.nodes[n].memory.malloc(4 * KB) for _ in range(4)]
              for n in range(N_NODES)}

    def do_lookup(node, i):
        handle, _ = caches[node].lookup(blocks[node][i])
        caches[node].unpin(handle)

    t = 0
    for r in range(rounds):
        for i in range(4):
            for node in range(N_NODES):
                t += 1
                engine.call_at(t * TICK, do_lookup, node, i)
    engine.run()
    return caches


class TestMultiNodeRegCache:
    def test_eviction_across_nodes(self):
        caches = _drive_caches(capacity=2, rounds=3)
        for n, cache in caches.items():
            # 4 distinct blocks cycling through a 2-entry cache: every
            # round re-registers, evicting the oldest unpinned entry
            assert cache.evictions > 0
            assert len(cache) <= 2

    def test_pinned_entries_survive_pressure(self):
        m, job = _make()
        eng = m.engine
        cache = RegistrationCache(job, node_id=3, capacity=1)
        a = m.nodes[3].memory.malloc(4 * KB)
        b = m.nodes[3].memory.malloc(4 * KB)
        pinned = []

        def pin_first():
            h, _ = cache.lookup(a)  # left pinned across events
            pinned.append(h)

        def press():
            h, _ = cache.lookup(b)
            cache.unpin(h)

        eng.call_at(1 * TICK, pin_first)
        eng.call_at(2 * TICK, press)
        eng.run()
        assert pinned[0].valid  # pinned -> survived capacity pressure
        assert len(cache) == 2  # over capacity rather than deadlocked
        cache.unpin(pinned[0])
