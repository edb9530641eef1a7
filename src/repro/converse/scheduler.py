"""The per-PE message-driven scheduler (CsdScheduler) and runtime core.

Execution model
---------------

Each PE executes messages strictly sequentially.  A handler is a Python
function that runs *logically* over a span of simulated time: when it
starts, the PE's virtual clock (:attr:`PE.vtime`) equals the engine time;
every cost the handler incurs — application work via :meth:`PE.charge`,
runtime costs charged by the layers — advances ``vtime``; anything the
handler hands to the hardware is released at the then-current ``vtime``
(the layers pass ``at=pe.vtime`` to the NIC and engine), so causality
holds without slicing handlers into callbacks.

Accounting
----------

``charge(dt, kind)`` attributes time to ``"useful"`` (application work) or
``"overhead"`` (runtime/communication processing); gaps between executions
are idle.  This is the exact three-way split of the paper's Projections
profiles (Fig. 12: white = idle, black = overhead, colored = useful).  An
optional tracer receives every interval for time-binned rendering.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import CharmError, SimulationError
from repro.hardware.machine import Machine


def _bootstrap_enqueue(pe: "PE", msg: "Message") -> None:
    """Batch-armed bootstrap trampoline (see ``broadcast_from_outside``)."""
    pe.enqueue(msg)


@dataclass
class Message:
    """A Converse message: envelope + payload.

    ``nbytes`` is the simulated wire size; ``payload`` is the Python value
    the handler receives.  The envelope fields mirror the real Converse
    header (handler index, source PE).
    """

    handler: int
    src_pe: int
    dst_pe: int
    nbytes: int
    payload: Any = None
    #: scheduler priority; lower runs first, None = FIFO lane
    prio: Optional[int] = None
    #: simulated time the message was handed to LrtsSyncSend
    sent_at: float = 0.0
    #: causal trace ID minted by the observer at send; ``None`` when
    #: observability is off or the message bypassed ``ConverseRuntime.send``
    trace_id: Optional[int] = None
    #: device-resident payload: ``False`` for host memory (the default),
    #: ``True`` for a runtime-managed transient device buffer, or a
    #: :class:`~repro.hardware.gpu.DeviceBuffer` the application owns.
    #: Truthy values route the send through the machine layer's GPU
    #: transport (staged-through-host or GPUDirect).
    device: Any = False


class PE:
    """One processing element: a core running the Converse scheduler."""

    def __init__(self, runtime: "ConverseRuntime", rank: int):
        self.runtime = runtime
        self.engine = runtime.engine
        self.rank = rank
        self.node = runtime.machine.node_of_pe(rank)
        # hot-path caches: both are fixed at runtime construction, and
        # charge()/_run_next() execute once per message
        self._tracer = runtime.tracer
        self._observer = runtime.machine.observer
        self._dispatch_cpu = runtime.config.sched_dispatch_cpu
        self._handlers = runtime._handlers  # registry list, appended in place
        # execution state
        self._fifo: deque = deque()
        self._prioq: list = []
        self._prio_seq = 0
        self._running = False  # a handler is executing right now
        self._scheduled = False  # a _run_next is on the event heap
        self._blocked = False  # stuck in a blocking call (MPI_Recv)
        self.halted = False  # node crashed: dead silicon, drops everything
        #: messages dropped because this PE was already halted
        self.dropped_dead = 0
        self.busy_until = 0.0
        self.vtime = 0.0
        # accounting
        self.useful_time = 0.0
        self.overhead_time = 0.0
        self.idle_since = 0.0
        self.idle_time = 0.0
        #: most recent closed idle interval, for horizon truncation in
        #: :meth:`utilization`
        self._last_idle_start = 0.0
        self._last_idle_end = 0.0
        self.messages_executed = 0
        #: per-PE scratch for machine layers / applications
        self.ctx: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Time accounting
    # ------------------------------------------------------------------ #
    def charge(self, dt: float, kind: str = "useful") -> None:
        """Advance this PE's virtual clock by ``dt`` seconds of ``kind``.

        Must be called from within a handler executing on this PE (or at
        init time before the scheduler starts).
        """
        if dt < 0:
            raise SimulationError(f"negative charge {dt}")
        if dt == 0.0:
            return
        start = self.vtime
        self.vtime += dt
        if kind == "useful":
            self.useful_time += dt
        else:
            self.overhead_time += dt
        tracer = self._tracer
        if tracer is not None:
            tracer.record(self.rank, start, dt, kind)

    @property
    def now(self) -> float:
        """The PE-local notion of current time (vtime while executing)."""
        return self.vtime if self._running else max(self.engine.now, self.busy_until)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def enqueue(self, msg: Message, recv_cpu: float = 0.0) -> None:
        """Put a ready message on this PE's scheduler queue (now).

        ``recv_cpu`` is network-layer receive processing (CQ poll, copy
        out, matching) charged as overhead when the message is picked up.
        """
        if self.halted:
            # dead silicon: a message that reaches a crashed PE vanishes
            # (previously it sat on the queue forever, which made queue
            # inspection — and the wave-mode checkpoint's quiescence
            # audit — lie about pending work)
            self.dropped_dead += 1
            return
        obs = self._observer
        if obs is not None and msg.trace_id is not None:
            obs.on_deliver(msg, self.rank, self.engine.now)
        if msg.prio is None:
            self._fifo.append((msg, recv_cpu))
        else:
            heapq.heappush(self._prioq, (msg.prio, self._prio_seq, msg, recv_cpu))
            self._prio_seq += 1
        self._kick()

    def deliver_at(self, time: float, msg: Message, recv_cpu: float = 0.0) -> None:
        """Schedule :meth:`enqueue` at an absolute simulated time."""
        self.engine.post_at(time, self.enqueue, msg, recv_cpu)

    # -- blocking calls (the MPI machine layer's MPI_Recv) -----------------------
    def begin_blocking(self) -> None:
        """Mark this PE blocked; no further messages run until unblocked.

        Called from inside a handler that ends in a blocking call (the
        MPI-based layer's large-message ``MPI_Recv``).  The paper: "once a
        MPI_IProbe returns true, the progress engine calls blocking
        MPI_Recv [...] which prevents the progress engine from doing any
        other work" (§V.B).
        """
        self._blocked = True

    def halt(self) -> None:
        """Stop this PE permanently (its node crashed).

        Queued and future messages are never executed; the fault injector
        calls this for every PE of a crashed node.  Modeled as a blocked
        state that is never unblocked — accounting stays consistent and
        in-flight hardware events addressed to the PE are simply dropped
        on the floor, as they would be by dead silicon.
        """
        self._blocked = True
        self.halted = True
        self.dropped_dead += self.queue_length
        self._fifo.clear()
        self._prioq.clear()

    def end_blocking(self, t: float, kind: str = "overhead") -> None:
        """Unblock at simulated time ``t``; the wait is charged as ``kind``."""
        if not self._blocked:
            raise SimulationError(f"PE {self.rank} was not blocked")
        self._blocked = False
        self.vtime = self.busy_until
        self.charge(max(0.0, t - self.busy_until), kind)
        self.busy_until = self.vtime
        self.idle_since = self.vtime
        self._kick()

    def _kick(self) -> None:
        if self._running or self._scheduled or self._blocked:
            return
        if not self._fifo and not self._prioq:
            return
        self._scheduled = True
        engine = self.engine
        t = engine.now
        bu = self.busy_until
        engine.post_at(bu if bu > t else t, self._run_next)

    def _pop(self) -> tuple[Message, float]:
        if self._prioq:
            _, _, msg, recv_cpu = heapq.heappop(self._prioq)
            return msg, recv_cpu
        msg, recv_cpu = self._fifo.popleft()
        return msg, recv_cpu

    def _run_next(self) -> None:
        self._scheduled = False
        if self._running:  # pragma: no cover - defensive
            return
        if not self._fifo and not self._prioq:
            return
        msg, recv_cpu = self._pop()
        t = self.engine.now
        if t > self.idle_since:
            self.idle_time += t - self.idle_since
            self._last_idle_start = self.idle_since
            self._last_idle_end = t
            if self._tracer is not None:
                self._tracer.record(self.rank, self.idle_since,
                                    t - self.idle_since, "idle")
        self._running = True
        self.vtime = t
        # network receive processing + scheduler dispatch are overhead
        self.charge(recv_cpu + self._dispatch_cpu, "overhead")
        obs = self._observer
        if obs is not None and msg.trace_id is not None:
            obs.on_exec(msg, self.rank, self.engine.now)
        try:
            handler = self._handlers[msg.handler]
        except IndexError:
            raise CharmError(f"unknown handler id {msg.handler}") from None
        try:
            handler(self, msg)
        finally:
            self._running = False
            self.busy_until = self.vtime
            self.idle_since = self.vtime
            self.messages_executed += 1
            self._kick()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_length(self) -> int:
        return len(self._fifo) + len(self._prioq)

    def utilization(self, horizon: Optional[float] = None) -> dict[str, float]:
        """Fractions of time spent useful / overhead / idle up to horizon.

        With an explicit ``horizon``, accumulated idle time is truncated to
        it: the portion of the most recent closed idle interval past the
        horizon is subtracted exactly, and deeper horizons clamp idle to
        the window (accumulated counters do not keep full interval history,
        so fractions for horizons that far back are upper bounds).
        """
        total = horizon if horizon is not None else self.engine.now
        if total <= 0:
            return {"useful": 0.0, "overhead": 0.0, "idle": 1.0}
        idle = self.idle_time
        if horizon is not None:
            if self._last_idle_end > total:
                idle -= self._last_idle_end - max(total, self._last_idle_start)
            idle = min(idle, total)
        idle += max(0.0, total - max(self.idle_since, self.busy_until))
        return {
            "useful": self.useful_time / total,
            "overhead": self.overhead_time / total,
            "idle": min(1.0, idle / total),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PE {self.rank} q={self.queue_length} busy_until={self.busy_until:.9f}>"


class ConverseRuntime:
    """Handler registry + PEs + the attached machine layer."""

    def __init__(self, machine: Machine, tracer: Optional[Any] = None,
                 n_pes: Optional[int] = None):
        """``n_pes`` restricts the job to the first N cores (block layout,
        filling whole nodes first, like ``aprun`` placement); the machine
        may have more cores than the job uses."""
        self.machine = machine
        self.engine = machine.engine
        self.config = machine.config
        # the observer doubles as the per-PE interval tracer (Projections
        # timeline) and hands every interval on to an explicit tracer
        if machine.observer is not None:
            machine.observer.downstream = tracer
            tracer = machine.observer
        self.tracer = tracer
        n = machine.n_pes if n_pes is None else n_pes
        if not 1 <= n <= machine.n_pes:
            raise CharmError(
                f"job wants {n} PEs but the machine has {machine.n_pes}")
        self._handlers: list[Callable[[PE, Message], None]] = []
        self._handler_ids: dict[Callable, int] = {}
        self.pes = [PE(self, rank) for rank in range(n)]
        self.lrts = None  # attached via attach_lrts
        self.messages_sent = 0

    # -- handlers -----------------------------------------------------------
    def register_handler(self, fn: Callable[[PE, Message], None]) -> int:
        """CmiRegisterHandler: idempotent per function."""
        hid = self._handler_ids.get(fn)
        if hid is None:
            hid = len(self._handlers)
            self._handlers.append(fn)
            self._handler_ids[fn] = hid
        return hid

    # -- machine layer ---------------------------------------------------------
    def attach_lrts(self, lrts) -> None:
        if self.lrts is not None:
            raise CharmError("an LRTS layer is already attached")
        self.lrts = lrts
        lrts.init(self)

    # -- send paths -----------------------------------------------------------
    def send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        """CmiSyncSend: non-blocking; charges send overhead to ``src_pe``.

        Local sends bypass the machine layer entirely (the scheduler just
        re-enqueues), exactly as the real Converse does.
        """
        if self.lrts is None:
            raise CharmError("no machine layer attached")
        self.messages_sent += 1
        msg.sent_at = src_pe.vtime
        obs = src_pe._observer
        if obs is not None:
            # stage times use the engine clock (monotone across events),
            # not PE vtime (which can run ahead of the engine)
            obs.on_send(msg, src_pe.rank, self.engine.now)
        src_pe.charge(self.config.converse_send_cpu, "overhead")
        if dst_rank == src_pe.rank:
            self.pes[dst_rank].deliver_at(src_pe.vtime, msg)
            return
        self.lrts.sync_send(src_pe, dst_rank, msg)

    def send_from_outside(self, dst_rank: int, msg: Message, at: float = 0.0) -> None:
        """Inject a bootstrap message from outside any handler (mainchare)."""
        self.pes[dst_rank].deliver_at(at, msg)

    def broadcast_from_outside(self, make_msg: Callable[[int], Message],
                               at: float = 0.0,
                               ranks: Optional[Iterable[int]] = None) -> None:
        """Inject one bootstrap message per rank (``make_msg(rank)``) at ``at``.

        The per-PE kick that starts every collective/spray benchmark.  The
        whole group is armed with one
        :meth:`~repro.sim.engine.Engine.call_at_batch` — consecutive
        ``seq`` stamps, identical firing order to the equivalent
        :meth:`send_from_outside` loop, but a single validation pass and
        no per-event Python dispatch.
        """
        ranks = range(len(self.pes)) if ranks is None else list(ranks)
        argss = [(self.pes[r], make_msg(r)) for r in ranks]
        self.engine.call_at_batch([at] * len(argss), _bootstrap_enqueue, argss)

    # -- run ----------------------------------------------------------------
    def run(self, until: float = float("inf"), max_events: Optional[int] = None) -> float:
        return self.engine.run(until=until, max_events=max_events)

    def total_utilization(self) -> dict[str, float]:
        """Machine-wide utilization split (averaged over PEs)."""
        agg = {"useful": 0.0, "overhead": 0.0, "idle": 0.0}
        for pe in self.pes:
            u = pe.utilization()
            for k in agg:
                agg[k] += u[k]
        n = len(self.pes)
        return {k: v / n for k, v in agg.items()}
