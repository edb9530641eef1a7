"""Generator-based simulation processes.

A process is a Python generator driven by the engine::

    def pinger(eng, out):
        yield 1e-6              # sleep 1 us
        ev = eng.event()
        out.append(eng.now)
        yield ev                # wait (something else calls ev.succeed(x))

    Process(eng, pinger(eng, out))

Yield values:

* ``float``/``int`` — sleep for that many seconds.
* :class:`~repro.sim.engine.Event` — suspend until triggered; ``yield``
  evaluates to the event's value.
* ``None`` — reschedule immediately (cooperative yield point).

Most of the repro stack is written callback-style for speed; processes are
used where sequential protocol logic (ping-pong drivers, MPI blocking calls)
reads far more clearly as straight-line code.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event


class Process:
    """Drives a generator on the engine; itself awaitable like an Event.

    The process's completion is exposed via :attr:`done_event`, so one
    process can ``yield other.done_event`` to join on another.
    """

    __slots__ = ("engine", "_gen", "done_event", "result", "error", "name")

    def __init__(self, engine: Engine, gen: Generator, name: str = "proc"):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__} "
                "(did you call the function instead of passing its generator?)"
            )
        self.engine = engine
        self._gen = gen
        self.name = name
        self.done_event: Event = engine.event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        engine.post_soon(self._resume, None)

    @property
    def done(self) -> bool:
        return self.done_event.triggered

    def _resume(self, value: Any) -> None:
        try:
            yielded = self._gen.send(value)
        except StopIteration as stop:
            self.result = stop.value
            self.done_event.succeed(stop.value)
            return
        except BaseException as exc:
            self.error = exc
            raise
        self._schedule(yielded)

    def _schedule(self, yielded: Any) -> None:
        if yielded is None:
            self.engine.post_soon(self._resume, None)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {yielded}"
                )
            self.engine.post_after(float(yielded), self._resume, None)
        elif isinstance(yielded, Event):
            yielded.add_callback(self._resume)
        elif isinstance(yielded, Process):
            yielded.done_event.add_callback(self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {type(yielded).__name__}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name} {state}>"
