"""The discrete-event engine: a clock over a slab-allocated event store.

The engine is single-threaded and fully deterministic: events scheduled
for the same timestamp fire in scheduling order (a monotonically
increasing sequence number breaks ties), so a given program + seed always
produces the same trace.  This determinism is load-bearing — the
paper-reproduction benchmarks assert on simulated metrics, and the test
suite asserts exact replay equality.  ``tests/_reference_engine.py``
keeps the previous tuple+heapq engine as the executable specification of
the ordering contract; a hypothesis property test drives both engines
through random interleavings and asserts identical firing orders.

Hot-path architecture (this module executes millions of times per
benchmark):

* **Slab storage.**  Event payloads live in parallel arrays indexed by a
  *slot*: ``_s_time`` / ``_s_seq`` / ``_s_fn`` / ``_s_args`` /
  ``_s_handle`` (plain lists — CPython list indexing is an incref, no
  boxing) and ``_s_state`` (a bytearray: FREE / PENDING / CANCELLED).
  Slots are recycled through a free list, so arming an event writes a
  few array cells instead of allocating; the slab only grows when more
  events are simultaneously pending than ever before.
* **Staging buffer.**  A new event is appended to ``_staged`` — an
  unsorted list — and only *promoted* into the real heap when the run
  loop needs an event that could be younger than the heap head.  The
  payoff is the armed-and-cancelled protocol-timeout pattern (every
  reliable SMSG arms a retransmit timer and almost always cancels it):
  a timer cancelled while still staged is reclaimed at promotion for
  O(1) and **never pays a single heap comparison**.  The heap therefore
  holds only events that survived long enough to matter, which also
  shrinks every remaining push/pop's ``log n``.
* **One skip path.**  All consumers — ``step()``, ``run()``,
  ``peek()`` — find the next live event through :meth:`_peek_live`, the
  single promote-and-reap loop.  (Historically ``peek`` carried its own
  copy of the lazy-cancel skip loop and drifted from ``step``/``run``
  in how it retired handles; one shared path makes that drift
  structurally impossible.)
* **Handles are slot views.**  :class:`EventHandle` is an
  ``(engine, slot, seq)`` triple; payloads stay in the slab.  The
  ``seq`` stamp makes stale handles *safe*: cancelling a handle whose
  slot was already recycled is a no-op instead of corruption.  Handle
  objects themselves are pooled, and the ``post_*`` family of calls
  skips handle creation entirely for fire-and-forget events.
* **Batch arming.**  :meth:`call_at_batch` / :meth:`call_after_batch`
  arm homogeneous event groups (per-PE bootstrap kicks, fault
  schedules, credit timers) with one validation pass — vectorized via
  numpy when the batch is large enough to amortize it.
* Cancellation stays lazy (O(1)); cancelled entries that did reach the
  heap are counted and compacted away when they dominate.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.sim import _speed

try:  # numpy is optional: the batch API falls back to a plain loop
    import numpy as _np
except Exception:  # pragma: no cover - numpy ships with the toolchain
    _np = None

#: the compiled slab core (repro.sim._speedups.EngineCore), or None when
#: unavailable — see repro.sim._speed for the build/fallback policy
_CORE_CLS = None if _speed.core is None else _speed.core.EngineCore

_INF = math.inf

#: keep at most this many retired handles for reuse
_POOL_MAX = 1024
#: compact only when at least this many cancelled entries are parked ...
_COMPACT_MIN = 64
#: ... and they exceed this fraction of all parked entries
_COMPACT_RATIO = 0.5
#: below this batch size a plain Python loop beats numpy's call overhead
_BATCH_NUMPY_MIN = 64

#: slab slot states
_FREE, _PENDING, _CANCELLED = 0, 1, 2

#: Engine methods shadowed by per-instance bindings to the compiled core.
#: Single source of truth: __init__ binds exactly these names, and
#: _core_eligible audits exactly these names, so a method can never be
#: forwarded to the core without also being guarded against overrides.
_CORE_FORWARDED = (
    "call_at", "call_after", "call_soon",
    "post_at", "post_after", "post_soon",
    "step", "peek", "stop",
)


class EventHandle:
    """Handle for a scheduled callback; supports :meth:`cancel`.

    A handle is a *view* onto a slab slot: ``(engine, slot, seq)``.  The
    ``seq`` stamp is compared against the slab before every operation,
    so a handle that outlives its event (the slot has been recycled for
    an unrelated future event) degrades to a harmless no-op — unlike
    the pre-slab engine, where cancelling a reused handle cancelled
    somebody else's event.

    Cancellation is lazy: the parked entry is skipped (staged entries)
    or reaped (heap entries) later.  This keeps ``cancel`` O(1), which
    matters because protocol timeouts are frequently armed and almost
    always cancelled.
    """

    __slots__ = ("engine", "slot", "seq")

    def __init__(self, engine: "Engine", slot: int, seq: int):
        self.engine = engine
        self.slot = slot
        self.seq = seq

    def _live(self) -> bool:
        eng = self.engine
        return eng._s_seq[self.slot] == self.seq

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent, stale-safe)."""
        # Inlined engine internals: armed-and-cancelled timers are a
        # per-message hot path for the reliable SMSG protocol.
        eng = self.engine
        slot = self.slot
        if eng._s_seq[slot] != self.seq or eng._s_state[slot] != _PENDING:
            return  # already fired, already cancelled, or slot recycled
        staged = eng._staged
        if staged and staged[-1][2] == slot:
            # Fast path: the event is the newest staged entry — the
            # arm-then-cancel-immediately timer pattern.  Unstage and
            # reclaim the slot right here: no cancelled-entry
            # bookkeeping, no compaction pressure, no heap contact ever.
            staged.pop()
            if not staged:
                eng._staged_min = None
            elif eng._staged_min[2] == slot:
                eng._staged_min = min(staged)
            eng._s_state[slot] = _FREE
            eng._s_fn[slot] = None
            eng._s_args[slot] = None
            eng._s_handle[slot] = None
            pool = eng._pool
            if len(pool) < _POOL_MAX:
                pool.append(self)
            eng._free.append(slot)
            return
        eng._s_state[slot] = _CANCELLED
        eng._s_fn[slot] = None
        eng._s_args[slot] = None
        cancelled = eng._cancelled + 1
        eng._cancelled = cancelled
        if (cancelled >= _COMPACT_MIN
                and cancelled > _COMPACT_RATIO * eng._parked()):
            eng._compact()

    @property
    def cancelled(self) -> bool:
        """True while this handle's event is parked in cancelled state."""
        eng = self.engine
        return (eng._s_seq[self.slot] == self.seq
                and eng._s_state[self.slot] == _CANCELLED)

    @property
    def time(self) -> float:
        """The armed timestamp (meaningful only while the event is live)."""
        return self.engine._s_time[self.slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._live():
            return f"<EventHandle slot={self.slot} seq={self.seq} stale>"
        state = "cancelled" if self.cancelled else "pending"
        return (f"<EventHandle t={self.time:.9f} seq={self.seq} "
                f"slot={self.slot} {state}>")


class Engine:
    """Slab event store + index heap + simulated clock.

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
    #: loop itself is not hooked — only the runaway-guard path is — so
    #: with both hooks unset the loop carries zero telemetry branches.
    observer = None

    def __init__(self) -> None:
        # The compiled slab core carries the whole hot path when it is
        # available.  Binding its methods *over* the instance shadows the
        # pure-Python definitions below, which remain as the executable
        # specification and the no-compiler fallback.  Subclasses and a
        # class-patched Engine run pure (see _core_eligible).
        core = None
        if _CORE_CLS is not None and _core_eligible(type(self)):
            core = _CORE_CLS(SimulationError)
            for name in _CORE_FORWARDED:
                setattr(self, name, getattr(core, name))
        self._core = core
        self._now = 0.0
        self._seq = 0
        # -- slab: parallel arrays indexed by slot --------------------------
        self._s_time: list[float] = []
        self._s_seq: list[int] = []
        self._s_fn: list[Optional[Callable]] = []
        self._s_args: list[Any] = []
        self._s_handle: list[Optional[EventHandle]] = []
        self._s_state = bytearray()
        #: recycled slots (LIFO keeps the working set cache-hot)
        self._free: list[int] = []
        # -- queues ---------------------------------------------------------
        #: promoted entries, heap-ordered; entries are (time, seq, slot)
        self._heap: list[tuple[float, int, int]] = []
        #: armed-but-not-promoted entries, append order
        self._staged: list[tuple[float, int, int]] = []
        #: minimal staged entry, or None when _staged is empty
        self._staged_min: Optional[tuple[float, int, int]] = None
        # -- lifecycle ------------------------------------------------------
        self._running = False
        self._stopped = False
        #: cancelled entries still parked (staged or heap)
        self._cancelled = 0
        #: retired EventHandle objects available for reuse
        self._pool: list[EventHandle] = []
        #: number of callbacks actually executed (diagnostics / tests);
        #: read via the events_executed property, which prefers the core's
        self._events_executed = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        core = self._core
        return core.now if core is not None else self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks actually executed (diagnostics / tests)."""
        core = self._core
        return core.events_executed if core is not None else self._events_executed

    # -- slab primitives ----------------------------------------------------
    def _free_slot(self, slot: int) -> None:
        """Release a fired/reaped slot (drop payload refs, pool the handle)."""
        self._s_state[slot] = _FREE
        self._s_fn[slot] = None
        self._s_args[slot] = None
        h = self._s_handle[slot]
        if h is not None:
            self._s_handle[slot] = None
            pool = self._pool
            if len(pool) < _POOL_MAX:
                pool.append(h)
        self._free.append(slot)

    def _parked(self) -> int:
        """Entries currently parked in queues (compaction denominator)."""
        return len(self._heap) + len(self._staged)

    def _stage(self, time: float, fn: Callable, args: tuple) -> int:
        """Arm one handle-less event (slot alloc + staging); returns its slot.

        The no-handle arming primitive: ``post_*`` and the batch API land
        here.  :meth:`_arm` is this plus handle construction, inlined.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._s_time[slot] = time
            self._s_seq[slot] = seq
            self._s_fn[slot] = fn
            self._s_args[slot] = args
            self._s_state[slot] = _PENDING
        else:
            slot = len(self._s_state)
            self._s_time.append(time)
            self._s_seq.append(seq)
            self._s_fn.append(fn)
            self._s_args.append(args)
            self._s_handle.append(None)
            self._s_state.append(_PENDING)
        entry = (time, seq, slot)
        self._staged.append(entry)
        sm = self._staged_min
        if sm is None or entry < sm:
            self._staged_min = entry
        return slot

    # -- scheduling ---------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without running anything.

        The checkpoint/restart path uses this to restore a fresh engine's
        clock to the checkpoint's simulated time (and then past it, to
        account for modeled restart cost) so post-recovery timelines stay
        monotone.  Jumping backward, or over a pending event (which would
        then fire in the past), is a :class:`SimulationError`.

        Boundary: an event armed at exactly ``time`` does **not** block
        the jump — ``peek()`` returns its timestamp, the comparison is
        strict, and the event still fires (at ``now == time``) on the
        next ``run()``/``step()``.  The restart path depends on this: the
        re-armed schedule is clamped to the resume time, so its first
        event sits exactly at the clock target.
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite clock target {time!r}")
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot rewind clock to t={time} (now={now})")
        nxt = self.peek()
        if time > nxt:
            raise SimulationError(
                f"advance_to(t={time}) would skip a pending event at t={nxt}")
        core = self._core
        if core is not None:
            core._set_now(time)
        else:
            self._now = time

    def _arm(self, time: float, fn: Callable, args: tuple) -> EventHandle:
        """Slot alloc + stage + handle, fully inlined (the arming hot path).

        This is :meth:`_stage` plus handle construction with the call
        tree flattened: one method call per armed event instead of four.
        The cold paths (``post_*``, batch arming) use :meth:`_stage`
        directly; the two must stay behaviorally identical.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._s_time[slot] = time
            self._s_seq[slot] = seq
            self._s_fn[slot] = fn
            self._s_args[slot] = args
            self._s_state[slot] = _PENDING
        else:
            slot = len(self._s_state)
            self._s_time.append(time)
            self._s_seq.append(seq)
            self._s_fn.append(fn)
            self._s_args.append(args)
            self._s_handle.append(None)
            self._s_state.append(_PENDING)
        entry = (time, seq, slot)
        self._staged.append(entry)
        sm = self._staged_min
        if sm is None or entry < sm:
            self._staged_min = entry
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.slot = slot
            handle.seq = seq
        else:
            handle = EventHandle(self, slot, seq)
        self._s_handle[slot] = handle
        return handle

    def call_at(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travel"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        return self._arm(time, fn, args)

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
        return self._arm(time, fn, args)

    def call_soon(self, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time (after pending ties)."""
        return self._arm(self._now, fn, args)

    # -- fire-and-forget scheduling (no handle) -----------------------------
    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """:meth:`call_at` without building a handle.

        For events nobody will ever cancel — scheduler kicks, hardware
        arrivals, process resumes — the handle is pure overhead; this
        path writes the slab cells and nothing else.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travel"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        self._stage(time, fn, args)

    def post_after(self, delay: float, fn: Callable, *args: Any) -> None:
        """:meth:`call_after` without building a handle."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        if time == _INF:
            raise SimulationError(f"non-finite event time {time!r}")
        self._stage(time, fn, args)

    def post_soon(self, fn: Callable, *args: Any) -> None:
        """:meth:`call_soon` without building a handle."""
        self._stage(self._now, fn, args)

    # -- batch scheduling ----------------------------------------------------
    def call_at_batch(self, times: Sequence[float], fn: Callable,
                      argss: Optional[Sequence[tuple]] = None) -> None:
        """Arm one ``fn(*args)`` event per entry of ``times``, in order.

        The homogeneous-timer fast path: per-PE bootstrap kicks, fault
        schedules, SMSG credit re-arms — groups of events sharing one
        callback.  Validation (finite, no time travel) is done in a
        single vectorized pass (numpy when the batch is large enough to
        amortize the array round-trip), then the events are staged
        back-to-back so they keep consecutive ``seq`` stamps — the
        firing order is exactly that of the equivalent ``call_at`` loop.

        ``argss`` supplies one argument tuple per event (``None`` arms
        them all with no arguments).  No handles are built; batch-armed
        events cannot be individually cancelled.
        """
        n = len(times)
        if argss is not None and len(argss) != n:
            raise SimulationError(
                f"call_at_batch: {n} times but {len(argss)} argument tuples")
        if n == 0:
            return
        now = self.now
        if _np is not None and n >= _BATCH_NUMPY_MIN:
            arr = _np.asarray(times, dtype=_np.float64)
            if not _np.isfinite(arr).all():
                raise SimulationError("non-finite event time in batch")
            if (arr < now).any():
                t = float(arr.min())
                raise SimulationError(
                    f"cannot schedule at t={t} (now={now}): time travel")
            times = arr.tolist()
        else:
            for t in times:
                if not math.isfinite(t):
                    raise SimulationError(f"non-finite event time {t!r}")
                if t < now:
                    raise SimulationError(
                        f"cannot schedule at t={t} (now={now}): time travel")
        core = self._core
        if core is not None:
            core.post_many(times, fn, argss if argss is not None else None)
            return
        stage = self._stage
        if argss is None:
            for t in times:
                stage(t, fn, ())
        else:
            for t, args in zip(times, argss):
                stage(t, fn, tuple(args))

    def call_after_batch(self, delays: Sequence[float], fn: Callable,
                         argss: Optional[Sequence[tuple]] = None) -> None:
        """Arm one ``fn(*args)`` event per entry of ``delays`` seconds.

        See :meth:`call_at_batch`; delays are validated (non-negative,
        finite) and converted to absolute times in one vectorized pass.
        """
        n = len(delays)
        if n == 0:
            return
        now = self.now
        if _np is not None and n >= _BATCH_NUMPY_MIN:
            arr = _np.asarray(delays, dtype=_np.float64)
            if not _np.isfinite(arr).all() or (arr < 0).any():
                raise SimulationError("negative or non-finite delay in batch")
            times: Sequence[float] = (arr + now).tolist()
        else:
            times = []
            for d in delays:
                if not 0.0 <= d < _INF:
                    raise SimulationError(f"negative delay {d!r}")
                times.append(now + d)
        self.call_at_batch(times, fn, argss)

    # -- event objects --------------------------------------------------------
    def event(self) -> "Event":
        """Create a fresh one-shot :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """An :class:`Event` that triggers automatically after ``delay``."""
        ev = Event(self)
        self.call_after(delay, ev.succeed, value)
        return ev

    # -- heap hygiene --------------------------------------------------------
    def _compact(self) -> None:
        """Drop lazily-cancelled entries everywhere and re-heapify.

        Pop order is unaffected: entry keys ``(time, seq)`` are unique,
        so the heap's total order — hence determinism — does not depend
        on its internal layout.
        """
        state = self._s_state
        heap = self._heap
        live = [e for e in heap if state[e[2]] == _PENDING]
        if len(live) != len(heap):
            for e in heap:
                if state[e[2]] != _PENDING:
                    self._free_slot(e[2])
            heap[:] = live
            heapq.heapify(heap)
        staged = self._staged
        if any(state[e[2]] != _PENDING for e in staged):
            for e in staged:
                if state[e[2]] != _PENDING:
                    self._free_slot(e[2])
            staged[:] = [e for e in staged if state[e[2]] == _PENDING]
            self._staged_min = min(staged) if staged else None
        self._cancelled = 0

    # -- the one skip path ---------------------------------------------------
    def _peek_live(self) -> Optional[tuple[float, int, int]]:
        """The next live entry, left at the heap head; None when idle.

        The **single** promote-and-reap loop shared by :meth:`step`,
        :meth:`run` and :meth:`peek` — every consumer of
        "the next event" goes through here, so the lazy-cancel skip
        logic cannot drift between them.  (Historically ``peek`` carried
        its own copy of the skip loop and diverged from ``step``/``run``
        in how it retired handles.)

        Two jobs, one loop: **promote** staged entries into the heap
        whenever one could precede the heap head — reclaiming entries
        cancelled while staged for O(1), *zero* heap comparisons — and
        **reap** entries cancelled after promotion off the heap top.
        """
        heap = self._heap
        state = self._s_state
        heappop = heapq.heappop
        while True:
            sm = self._staged_min
            if sm is not None and (not heap or sm <= heap[0]):
                # promote: drain the staging buffer into the heap
                push = heapq.heappush
                for entry in self._staged:
                    slot = entry[2]
                    if state[slot] == _PENDING:
                        push(heap, entry)
                    else:  # cancelled while staged: reclaim, skip the heap
                        self._cancelled -= 1
                        self._free_slot(slot)
                self._staged.clear()
                self._staged_min = None
            if not heap:
                return None
            entry = heap[0]
            if state[entry[2]] == _PENDING:
                return entry
            heappop(heap)
            self._cancelled -= 1
            self._free_slot(entry[2])

    # -- run loop -----------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        entry = self._peek_live()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        slot = entry[2]
        self._now = entry[0]
        self._events_executed += 1
        fn = self._s_fn[slot]
        args = self._s_args[slot]
        self._free_slot(slot)
        fn(*args)
        return True

    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> float:
        """Run until the queues drain, ``until`` is reached, or ``stop()``.

        Returns the simulated time at exit.  ``max_events`` is a runaway
        guard for tests; exceeding it raises :class:`SimulationError`.  The
        guard fires *before* the offending event runs, so
        ``events_executed`` counts only callbacks that actually executed.

        The loop is specialized for the hook-free case: with no
        sanitizer/observer installed and no guard tripping, each
        iteration is one :meth:`_peek_live`, one heap pop, five slab
        cell writes and the callback — nothing else.
        """
        core = self._core
        if core is not None:
            # hooks ride along per call: observer/sanitizer are consulted
            # only on the runaway-guard and drained paths, so with both
            # unset the compiled loop carries no Python callbacks at all
            return core.run(until, max_events, self.observer, self.sanitizer)
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        limit = _INF if max_events is None else max_events
        # hot-loop locals: every name below is touched once per event
        heap = self._heap
        heappop = heapq.heappop
        peek_live = self._peek_live
        s_fn = self._s_fn
        s_args = self._s_args
        s_state = self._s_state
        s_handle = self._s_handle
        pool = self._pool
        free_append = self._free.append
        try:
            while not self._stopped:
                entry = peek_live()
                if entry is None:
                    break
                time = entry[0]
                if time > until:
                    self._now = until
                    return self._now
                if executed >= limit:
                    obs = self.observer
                    if obs is not None:
                        obs.on_stall(self._now, max_events)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
                heappop(heap)
                slot = entry[2]
                self._now = time
                self._events_executed += 1
                executed += 1
                fn = s_fn[slot]
                args = s_args[slot]
                # _free_slot(), inlined for the per-event hot loop
                s_state[slot] = _FREE
                s_fn[slot] = None
                s_args[slot] = None
                h = s_handle[slot]
                if h is not None:
                    s_handle[slot] = None
                    if len(pool) < _POOL_MAX:
                        pool.append(h)
                free_append(slot)
                fn(*args)
            # drained-or-stopped exit (mirrors the old engine's while-else):
            # with nothing parked, advance the clock to a finite horizon so
            # repeated run(until=...) calls observe monotonic time, and
            # raise the quiescence hook (itself a no-op on a stop() exit)
            if not heap and not self._staged:
                if math.isfinite(until) and until > self._now:
                    self._now = until
                self._notify_drained()
        finally:
            self._running = False
        return self._now

    def _notify_drained(self) -> None:
        """Quiescence hook: the queues drained (not a ``stop()`` exit)."""
        san = self.sanitizer
        if san is not None and not self._stopped:
            san.on_engine_drained(self._now)

    def stop(self) -> None:
        """Request :meth:`run` to return after the current callback."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Parked entries — staged + heap, including lazily-cancelled ones."""
        core = self._core
        if core is not None:
            return core.pending
        return len(self._heap) + len(self._staged)

    @property
    def pending_cancelled(self) -> int:
        """Cancelled entries still parked (diagnostics)."""
        core = self._core
        return core.pending_cancelled if core is not None else self._cancelled

    def peek(self) -> float:
        """Timestamp of the next live event, or ``inf`` when idle.

        Shares :meth:`_peek_live` with ``step``/``run``; reaping a
        cancelled head entry here retires it exactly the way the run
        loop would.
        """
        entry = self._peek_live()
        return entry[0] if entry is not None else _INF


#: the forwarded methods as defined by the class body above — captured at
#: import so _core_eligible can detect later class-level replacement
_CORE_PRISTINE = {name: Engine.__dict__[name] for name in _CORE_FORWARDED}


def _core_eligible(cls: type) -> bool:
    """May instances of ``cls`` bind the compiled core's hot-path methods?

    Only an exact, unmodified :class:`Engine` qualifies.  A subclass that
    overrides even one forwarded method (say, only ``post_soon``) must
    never see the core's sibling fast paths — internal traffic would
    bypass its override.  The same hazard exists when ``Engine`` itself
    is patched at class level (a test wrapping ``Engine.post_soon`` to
    count calls): the per-instance core binding would shadow the wrapper
    silently, so any drift from the pristine class body disables binding
    and the pure-Python specification runs instead.
    """
    if cls is not Engine:
        return False
    return all(cls.__dict__.get(name) is _CORE_PRISTINE[name]
               for name in _CORE_FORWARDED)


class Event:
    """A one-shot triggerable value, with callbacks and process support.

    States: *pending* → *triggered*.  Triggering twice raises
    :class:`SimulationError` (real CQ events never fire twice either, and
    silent double-triggers have historically hidden protocol bugs).
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._callbacks: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
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
