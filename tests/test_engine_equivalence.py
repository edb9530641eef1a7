"""Differential tests: slab engine (C core and pure Python) vs the oracle.

``tests/_reference_engine.py`` is the pre-slab heap engine, kept frozen as
an executable specification.  These tests drive random interleavings of
schedule / cancel / run / step / peek through the production engine and
the oracle side by side and require identical observable behaviour:
the same ``(time, tag)`` firing order, the same clock, the same live
event counts.

The production engine is exercised in **both** backends in-process:

* ``Engine()`` — binds the compiled C core when it is available;
* ``PureEngine`` (a trivial subclass) — the core is only bound when
  ``type(self) is Engine``, so any subclass runs the pure-Python slab
  paths.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import _speed
from repro.sim.engine import _COMPACT_MIN, _COMPACT_RATIO, Engine
from tests._reference_engine import ReferenceEngine

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class PureEngine(Engine):
    """Forces the pure-Python slab paths even when the C core is built."""


#: engine factories under test, each diffed against the oracle
BACKENDS = [pytest.param(Engine, id="c-core" if _speed.core else "default"),
            pytest.param(PureEngine, id="pure-python")]

# small delay menu with deliberate duplicates so ties (same time,
# different seq) are common
_DELAYS = [0.0, 1e-9, 1e-9, 2e-9, 5e-9, 1e-8, 3e-8, 1e-7]

_op = st.one_of(
    st.tuples(st.just("after"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("post"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("soon")),
    st.tuples(st.just("batch"),
              st.lists(st.sampled_from(_DELAYS), min_size=0, max_size=5)),
    st.tuples(st.just("cancel"), st.integers(0, 31)),
    st.tuples(st.just("run"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


class _Driver:
    """Replays one op sequence against one engine, recording what fired."""

    def __init__(self, eng):
        self.eng = eng
        self.log = []
        #: tag -> handle for events still armed and not cancelled.  The
        #: oracle pools and *reuses* retired handles (its handles are not
        #: stale-safe — that is one of the things the slab engine fixed),
        #: so the driver must never cancel a handle whose event already
        #: fired or was already cancelled.
        self.live = {}
        self.peeks = []
        self.next_tag = 0

    def _cb(self, tag):
        def cb():
            self.live.pop(tag, None)
            self.log.append((repr(self.eng.now), tag))
        return cb

    def apply(self, op):
        eng = self.eng
        kind = op[0]
        if kind == "after":
            self.live[self.next_tag] = eng.call_after(
                op[1], self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "post":
            # reference has no post_*; the contract is "call_after minus
            # the handle", so the oracle side just drops the handle
            if isinstance(eng, ReferenceEngine):
                eng.call_after(op[1], self._cb(self.next_tag))
            else:
                eng.post_after(op[1], self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "soon":
            if isinstance(eng, ReferenceEngine):
                eng.call_soon(self._cb(self.next_tag))
            else:
                eng.post_soon(self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "batch":
            delays = op[1]
            tags = [self.next_tag + i for i in range(len(delays))]
            self.next_tag += len(delays)
            if isinstance(eng, ReferenceEngine):
                for d, t in zip(delays, tags):
                    eng.call_after(d, self._cb(t))
            else:
                eng.call_after_batch(delays, _batch_cb,
                                     [(self, t) for t in tags])
        elif kind == "cancel":
            if self.live:
                tags = sorted(self.live)
                self.live.pop(tags[op[1] % len(tags)]).cancel()
        elif kind == "run":
            eng.run(until=eng.now + op[1])
        elif kind == "step":
            eng.step()
        elif kind == "peek":
            self.peeks.append(repr(eng.peek()))

    def finish(self):
        self.eng.run()
        return (self.log, self.peeks, repr(self.eng.now),
                self.eng.events_executed,
                self.eng.pending - self.eng.pending_cancelled)


def _batch_cb(driver, tag):
    driver.log.append((repr(driver.eng.now), tag))


@pytest.mark.parametrize("factory", BACKENDS)
@settings(**SETTINGS)
@given(ops=st.lists(_op, max_size=40))
def test_slab_engine_matches_reference(factory, ops):
    """Any schedule/cancel/run/step/peek interleaving fires the same
    events, in the same order, at the same times, as the oracle."""
    ref = _Driver(ReferenceEngine())
    cur = _Driver(factory())
    for op in ops:
        ref.apply(op)
        cur.apply(op)
    assert cur.finish() == ref.finish()


@pytest.mark.parametrize("factory", BACKENDS)
def test_tie_storm_matches_reference(factory):
    """Dense same-time ties + interleaved cancels: the worst case for any
    ordering bug, checked deterministically (not just via hypothesis)."""
    ref = _Driver(ReferenceEngine())
    cur = _Driver(factory())
    ops = []
    for i in range(50):
        ops.append(("after", _DELAYS[i % len(_DELAYS)]))
        if i % 3 == 0:
            ops.append(("cancel", i * 7))
        if i % 11 == 0:
            ops.append(("run", 2e-9))
        if i % 5 == 0:
            ops.append(("batch", [1e-9, 1e-9, 0.0]))
    for op in ops:
        ref.apply(op)
        cur.apply(op)
    assert cur.finish() == ref.finish()


@pytest.mark.parametrize("factory", BACKENDS)
def test_mass_cancel_compacts_and_matches_reference(factory):
    """Lazily cancelling more than ``_COMPACT_RATIO`` of the parked
    entries, and at least ``_COMPACT_MIN`` of them, compacts the queues
    at once; the survivors still fire exactly as in the oracle."""
    n_arm = 3 * _COMPACT_MIN
    n_cancel = 2 * _COMPACT_MIN + 1
    assert n_cancel > _COMPACT_RATIO * n_arm
    ref = _Driver(ReferenceEngine())
    cur = _Driver(factory())
    ops = [("after", _DELAYS[i % len(_DELAYS)]) for i in range(n_arm)]
    # index 0 cancels the oldest live event: never the newest staged
    # entry, so every cancel takes the lazy path, not the unstage one
    ops += [("cancel", 0)] * n_cancel
    for op in ops:
        ref.apply(op)
        cur.apply(op)
    eng = cur.eng
    # without compaction all n_arm entries would still be parked and all
    # n_cancel of them counted as cancelled
    assert eng.pending < n_arm
    assert eng.pending_cancelled < n_cancel
    assert eng.pending - eng.pending_cancelled == n_arm - n_cancel
    assert cur.finish() == ref.finish()


# --------------------------------------------------------------------- #
# advance_to boundary (satellite: documented + tested)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKENDS)
class TestAdvanceToBoundary:
    def test_event_at_target_survives_and_fires(self, factory):
        """The boundary is strict: jumping to *exactly* the next event's
        time is legal, the event survives the jump, and it fires at
        ``now == time`` on the next run (the restart path's clamped
        schedules depend on this)."""
        eng = factory()
        fired = []
        eng.call_at(1e-8, fired.append, "boundary")
        eng.call_at(2e-8, fired.append, "late")
        eng.advance_to(1e-8)  # == peek(): allowed
        assert eng.now == 1e-8
        assert fired == []  # the jump itself runs nothing
        eng.run()
        assert fired == ["boundary", "late"]

    def test_jump_past_pending_event_rejected(self, factory):
        from repro.errors import SimulationError
        eng = factory()
        eng.call_at(1e-8, lambda *_: None)
        with pytest.raises(SimulationError, match="skip a pending event"):
            eng.advance_to(1e-8 + 1e-12)

    def test_cancelled_event_does_not_block_jump(self, factory):
        eng = factory()
        eng.call_at(1e-9, lambda *_: None).cancel()
        eng.call_at(1e-8, lambda *_: None)
        eng.advance_to(5e-9)  # cancelled 1e-9 entry is dead, not pending
        assert eng.now == 5e-9

    def test_matches_reference(self, factory):
        ref, cur = ReferenceEngine(), factory()
        out_ref, out_cur = [], []
        for eng, out in ((ref, out_ref), (cur, out_cur)):
            for t in (3e-9, 3e-9, 7e-9):
                eng.call_at(t, out.append, t)
            eng.advance_to(3e-9)
            eng.run()
        assert out_cur == out_ref
        assert repr(cur.now) == repr(ref.now)


# --------------------------------------------------------------------- #
# peek() must not mutate observable state (satellite: shared _pop_live)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKENDS)
def test_peek_is_pure(factory):
    eng = factory()
    eng.call_after(2e-9, lambda: None)
    h = eng.call_after(1e-9, lambda: None)
    h.cancel()
    first = eng.peek()
    assert first == 2e-9
    for _ in range(3):  # repeated peeks agree and change nothing
        assert eng.peek() == first
    live = eng.pending - eng.pending_cancelled
    assert live == 1
    eng.run()
    assert eng.events_executed == 1
