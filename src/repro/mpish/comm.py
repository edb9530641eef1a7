"""Process-style blocking MPI calls for the raw benchmarks.

These are generators to be driven by :class:`repro.sim.process.Process` —
straight-line MPI code like the paper's pure-MPI ping-pong::

    def rank0(world):
        yield from send(world, 0, 1, tag=0, nbytes=size, buf_key="buf0")
        data = yield from recv(world, 0, src=1, tag=0)

Every CPU cost returned by the world is slept through, so elapsed
simulated time equals wall time for an MPI process: blocking semantics.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.mpish.matching import ANY
from repro.mpish.world import MpiWorld


def send(world: MpiWorld, rank: int, dst: int, tag: int, nbytes: int,
         payload: Any = None,
         buf_key: Optional[Hashable] = None) -> Generator:
    """Blocking MPI_Send."""
    req, cpu = world.isend(rank, dst, tag, nbytes, payload=payload,
                           buf_key=buf_key, at=world.engine.now)
    yield cpu
    if not req.completed:
        yield req.done
    return req


def recv(world: MpiWorld, rank: int, src: int = ANY, tag: int = ANY,
         buf_key: Optional[Hashable] = None) -> Generator:
    """Blocking MPI_Recv; returns the matched arrival."""
    req, cpu = world.irecv(rank, src=src, tag=tag, buf_key=buf_key,
                           at=world.engine.now)
    yield cpu
    if not req.completed:
        yield req.done
    return req.matched
