"""Tests for spanning trees and quiescence internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converse.collectives import SpanningTree


class TestSpanningTree:
    def test_root_has_no_parent(self):
        t = SpanningTree(10)
        assert t.parent(0) is None

    def test_parent_child_consistency(self):
        t = SpanningTree(23, branching=4)
        for pe in range(23):
            for c in t.children(pe):
                assert t.parent(c) == pe

    def test_every_pe_reachable_once(self):
        t = SpanningTree(37, branching=3)
        seen = []

        def walk(pe):
            seen.append(pe)
            for c in t.children(pe):
                walk(c)

        walk(0)
        assert sorted(seen) == list(range(37))

    def test_nonzero_root(self):
        t = SpanningTree(9, branching=2, root=5)
        assert t.parent(5) is None
        seen = []

        def walk(pe):
            seen.append(pe)
            for c in t.children(pe):
                walk(c)

        walk(5)
        assert sorted(seen) == list(range(9))

    def test_subtree_sizes_partition(self):
        t = SpanningTree(20, branching=4)
        assert t.subtree_size(0) == 20
        child_total = sum(t.subtree_size(c) for c in t.children(0))
        assert child_total == 19

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SpanningTree(0)
        with pytest.raises(ValueError):
            SpanningTree(4, branching=1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.integers(2, 8), st.integers(0, 199))
    def test_property_tree_is_spanning(self, n, k, root):
        root = root % n
        t = SpanningTree(n, branching=k, root=root)
        # every node walks up to the root
        for pe in range(n):
            hops = 0
            at = pe
            while t.parent(at) is not None:
                at = t.parent(at)
                hops += 1
                assert hops <= n
            assert at == root


class TestQuiescenceUnits:
    def test_waves_counted(self):
        from repro.converse.quiescence import QuiescenceDetector
        from repro.hardware.config import tiny as tiny_config
        from repro.lrts.factory import make_runtime

        conv, _ = make_runtime(n_pes=8, config=tiny_config())
        qd = QuiescenceDetector(conv)
        fired = []
        qd.start(fired.append)
        conv.run(max_events=10**5)
        assert fired, "system was quiescent; detection must fire"
        assert qd.waves >= 2  # two consecutive agreeing waves required

    def test_double_start_rejected(self):
        from repro.converse.quiescence import QuiescenceDetector
        from repro.hardware.config import tiny as tiny_config
        from repro.lrts.factory import make_runtime

        conv, _ = make_runtime(n_pes=4, config=tiny_config())
        qd = QuiescenceDetector(conv)
        qd.start(lambda t: None)
        with pytest.raises(RuntimeError):
            qd.start(lambda t: None)

    def test_not_quiescent_while_messages_outstanding(self):
        """QD must not fire while notify_send counts exceed processed."""
        from repro.converse.quiescence import QuiescenceDetector
        from repro.hardware.config import tiny as tiny_config
        from repro.lrts.factory import make_runtime

        conv, _ = make_runtime(n_pes=4, config=tiny_config())
        qd = QuiescenceDetector(conv)
        qd.notify_send(0)  # one message "in flight" forever
        fired = []
        qd.start(fired.append)
        conv.run(until=2e-3, max_events=10**5)
        assert not fired
