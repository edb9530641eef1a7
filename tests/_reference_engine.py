"""Reference copy of the pre-slab heap engine (PR 3 vintage).

This is the ``(time, seq, EventHandle)`` tuple+heapq engine that
``repro.sim.engine`` shipped before the slab rebuild.  It is kept under
``tests/`` as the executable specification of the event-ordering
contract: the hypothesis property test drives this engine and the slab
engine through identical schedule/cancel/run interleavings and asserts
the ``(time, seq, callback)`` firing order is bit-identical.

Do not optimize or "fix" this module — it is the oracle.  (The one
change from the shipped version: classes are renamed Reference* so both
engines can be imported side by side.)
"""


from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_INF = math.inf

#: keep at most this many retired handles for reuse
_POOL_MAX = 1024
#: compact only when the heap has at least this many cancelled entries ...
_COMPACT_MIN = 64
#: ... and they exceed this fraction of all entries
_COMPACT_RATIO = 0.5


class ReferenceEventHandle:
    """Handle for a scheduled callback; supports :meth:`cancel`.

    Cancellation is lazy: the heap entry stays in place and is skipped when
    popped.  This keeps ``cancel`` O(1), which matters because protocol
    timeouts are frequently armed and almost always cancelled.

    Handles are pooled: once the callback has run (or a cancelled entry has
    been reaped from the heap) the engine may reuse this object for an
    unrelated future event, so hold a handle — and call :meth:`cancel` —
    only while its event is still pending.
    """

    __slots__ = ("engine", "time", "seq", "fn", "args", "cancelled")

    def __init__(self, engine: "ReferenceEngine", time: float, seq: int,
                 fn: Callable, args: tuple):
        self.engine = engine
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled-but-not-yet-popped entries do not
        # pin large payloads in memory.
        self.fn = _noop
        self.args = ()
        eng = self.engine
        eng._cancelled += 1
        if (eng._cancelled >= _COMPACT_MIN
                and eng._cancelled > _COMPACT_RATIO * len(eng._heap)):
            eng._compact()

    def __lt__(self, other: "ReferenceEventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class ReferenceEngine:
    """Event heap + simulated clock.

    Typical use::

        eng = Engine()
        eng.call_after(1e-6, handler, arg)
        eng.run()
        assert eng.now >= 1e-6
    """

    #: lifecycle sanitizer (:mod:`repro.sanitize`), set by the machine
    #: that owns this engine; ``None`` skips the quiescence checks
    sanitizer = None
    #: observability hub (:mod:`repro.observe`), set by the machine that
    #: owns this engine; ``None`` skips all telemetry hooks.  The run
    #: loop itself is not hooked — only the runaway-guard path is.
    observer = None

    def __init__(self) -> None:
        self._now = 0.0
        #: entries are (time, seq, EventHandle); seq is unique so tuple
        #: comparison never reaches the handle
        self._heap: list[tuple[float, int, ReferenceEventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: cancelled entries still parked in the heap
        self._cancelled = 0
        #: retired handles available for reuse
        self._pool: list[ReferenceEventHandle] = []
        #: number of callbacks actually executed (diagnostics / tests)
        self.events_executed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------------
    def _push(self, time: float, fn: Callable, args: tuple) -> EventHandle:
        """Arm one event; validation is the caller's job."""
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
        else:
            handle = ReferenceEventHandle(self, time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def _retire(self, handle: ReferenceEventHandle) -> None:
        """Return a spent handle to the pool (drop payload references)."""
        handle.fn = _noop
        handle.args = ()
        pool = self._pool
        if len(pool) < _POOL_MAX:
            pool.append(handle)

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without running anything.

        The checkpoint/restart path uses this to restore a fresh engine's
        clock to the checkpoint's simulated time (and then past it, to
        account for modeled restart cost) so post-recovery timelines stay
        monotone.  Jumping backward, or over a pending event (which would
        then fire in the past), is a :class:`SimulationError`.
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite clock target {time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot rewind clock to t={time} (now={self._now})")
        nxt = self.peek()
        if time > nxt:
            raise SimulationError(
                f"advance_to(t={time}) would skip a pending event at t={nxt}")
        self._now = time

    def call_at(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travel"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        return self._push(time, fn, args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds (``delay >= 0``).

        Fast path: a non-negative finite delay lands at ``now + delay``,
        which can never time-travel, so the absolute-time revalidation of
        :meth:`call_at` is skipped.
        """
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        if time == _INF:
            raise SimulationError(f"non-finite event time {time!r}")
        return self._push(time, fn, args)

    def call_soon(self, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        return self._push(self._now, fn, args)

    # -- event objects --------------------------------------------------------
    def event(self) -> "ReferenceEvent":
        """Create a fresh one-shot :class:`ReferenceEvent` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "ReferenceEvent":
        """An :class:`ReferenceEvent` that triggers automatically after ``delay``."""
        ev = ReferenceEvent(self)
        self.call_after(delay, ev.succeed, value)
        return ev

    # -- heap hygiene --------------------------------------------------------
    def _compact(self) -> None:
        """Drop lazily-cancelled entries and re-heapify (in place).

        Pop order is unaffected: entry keys ``(time, seq)`` are unique, so
        the heap's total order — hence determinism — does not depend on its
        internal layout.
        """
        heap = self._heap
        live = [e for e in heap if not e[2].cancelled]
        if len(live) != len(heap):
            for e in heap:
                if e[2].cancelled:
                    self._retire(e[2])
            heap[:] = live
            heapq.heapify(heap)
        self._cancelled = 0

    # -- run loop -----------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        heap = self._heap
        while heap:
            _, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                self._retire(handle)
                continue
            self._now = handle.time
            self.events_executed += 1
            fn, args = handle.fn, handle.args
            self._retire(handle)
            fn(*args)
            return True
        return False

    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or ``stop()``.

        Returns the simulated time at exit.  ``max_events`` is a runaway
        guard for tests; exceeding it raises :class:`SimulationError`.  The
        guard fires *before* the offending event runs, so
        ``events_executed`` counts only callbacks that actually executed.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        heappop = heapq.heappop
        pool = self._pool
        try:
            while heap and not self._stopped:
                time, _, handle = heap[0]
                if handle.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    self._retire(handle)
                    continue
                if time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    obs = self.observer
                    if obs is not None:
                        obs.on_stall(self._now, max_events)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
                heappop(heap)
                self._now = time
                self.events_executed += 1
                executed += 1
                fn, args = handle.fn, handle.args
                # _retire(), inlined for the per-event hot loop
                handle.fn = _noop
                handle.args = ()
                if len(pool) < _POOL_MAX:
                    pool.append(handle)
                fn(*args)
            else:
                if not heap:
                    if math.isfinite(until) and until > self._now:
                        # Drained before the horizon: advance the clock to
                        # it so repeated run(until=...) calls observe
                        # monotonic time.
                        self._now = until
                    self._notify_drained()
        finally:
            self._running = False
        return self._now

    def _notify_drained(self) -> None:
        """Quiescence hook: the heap drained (not a ``stop()`` exit)."""
        san = self.sanitizer
        if san is not None and not self._stopped:
            san.on_engine_drained(self._now)

    def stop(self) -> None:
        """Request :meth:`run` to return after the current callback."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of heap entries (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def pending_cancelled(self) -> int:
        """Cancelled entries still parked in the heap (diagnostics)."""
        return self._cancelled

    def peek(self) -> float:
        """Timestamp of the next live event, or ``inf`` when idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            _, _, handle = heapq.heappop(heap)
            self._cancelled -= 1
            self._retire(handle)
        return heap[0][0] if heap else math.inf


class ReferenceEvent:
    """A one-shot triggerable value, with callbacks and process support.

    States: *pending* → *triggered*.  Triggering twice raises
    :class:`SimulationError` (real CQ events never fire twice either, and
    silent double-triggers have historically hidden protocol bugs).
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value")

    def __init__(self, engine: ReferenceEngine):
        self.engine = engine
        self._callbacks: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "ReferenceEvent":
        """Trigger the event, delivering ``value`` to all waiters."""
        if self.triggered:
            raise SimulationError("Event already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)
        return self

    def add_callback(self, cb: Callable[[Any], None]) -> None:
        """Run ``cb(value)`` on trigger; immediately if already triggered."""
        if self.triggered:
            cb(self.value)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered value={self.value!r}" if self.triggered else "pending"
        return f"<Event {state}>"
