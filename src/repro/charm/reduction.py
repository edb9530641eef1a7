"""Reduction operators and per-collection reduction state."""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import CharmError


REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "concat": lambda a, b: (a if isinstance(a, list) else [a])
    + (b if isinstance(b, list) else [b]),
    "logical_and": lambda a, b: bool(a) and bool(b),
    "logical_or": lambda a, b: bool(a) or bool(b),
}


class RoundState:
    """Accumulator for one reduction *round* on one PE.

    Rounds are tracked independently because elements may run ahead: in a
    pipelined application (mini-NAMD without barriers) one local element
    can contribute to round *r+1* while a neighbor is still computing
    round *r*.  Mixing those contributions into a single accumulator was
    a real bug this class exists to prevent — Charm++'s reduction manager
    tags every contribution with its element's own reduction count for
    the same reason.
    """

    __slots__ = ("value", "have_value", "local_contrib", "children_done",
                 "op", "target")

    def __init__(self) -> None:
        self.value: Any = None
        self.have_value = False
        self.local_contrib = 0
        self.children_done = 0
        self.op: str | None = None
        self.target = None

    def add(self, value: Any, op: str, target) -> None:
        if self.op is None:
            self.op, self.target = op, target
        elif self.op != op:
            raise CharmError(
                f"mismatched reduction ops in one round: {self.op} vs {op}")
        if self.have_value:
            self.value = REDUCERS[op](self.value, value)
        else:
            self.value = value
            self.have_value = True


class ReductionState:
    """All in-flight reduction rounds of one (collection, PE)."""

    __slots__ = ("rounds",)

    def __init__(self) -> None:
        self.rounds: dict[int, RoundState] = {}

    def round_state(self, rnd: int) -> RoundState:
        st = self.rounds.get(rnd)
        if st is None:
            st = RoundState()
            self.rounds[rnd] = st
        return st

    def pop(self, rnd: int) -> None:
        self.rounds.pop(rnd, None)

    @property
    def active(self) -> bool:
        return bool(self.rounds)
