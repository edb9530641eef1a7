"""Feature flags and protocol constants for the RDMA machine layer.

The knobs here are the IB-verbs-shaped decisions (RC retry budget, send
queue depth, staging pool) — the hardware timing constants live in
:class:`~repro.hardware.config.MachineConfig` like every other fabric's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LrtsError
from repro.units import KB


@dataclass(frozen=True)
class RdmaLayerConfig:
    """Layer-level policy for :class:`RdmaMachineLayer`."""

    #: intra-node path: ``"pxshm"`` (double copy), ``"pxshm_single"``
    #: (sender-side copy only), or ``"fabric"`` (loop through the NIC)
    intranode: str = "pxshm"
    #: max outstanding (un-acked) work requests per RC queue pair
    sq_depth: int = 64
    #: hardware retransmission budget per work request (IB RC default: 7)
    retry_count: int = 7
    #: retransmission timeout after a lost packet
    retransmit_timeout: float = 12e-6
    #: re-send interval for the UD connection handshake (armed only under
    #: fault injection; the fault-free path never starts the timer)
    connect_retry: float = 25e-6
    #: per-PE registered staging pool for eager sends / pre-posted recvs
    eager_pool_bytes: int = 256 * KB
    #: override :attr:`MachineConfig.rdma_eager_max` (None = use it)
    eager_max: int | None = None

    def __post_init__(self) -> None:
        if self.intranode not in ("pxshm", "pxshm_single", "fabric"):
            raise LrtsError(
                f"intranode must be 'pxshm', 'pxshm_single' or 'fabric', "
                f"got {self.intranode!r}")
        if self.sq_depth < 1:
            raise LrtsError(f"sq_depth must be >= 1, got {self.sq_depth}")
        if self.retry_count < 0:
            raise LrtsError(f"retry_count must be >= 0, got {self.retry_count}")
        if self.retransmit_timeout <= 0:
            raise LrtsError(
                f"retransmit_timeout must be positive, "
                f"got {self.retransmit_timeout}")
        if self.connect_retry <= 0:
            raise LrtsError(
                f"connect_retry must be positive, got {self.connect_retry}")
        if self.eager_pool_bytes < 4 * KB:
            raise LrtsError(
                f"eager_pool_bytes must be >= 4 KB, got {self.eager_pool_bytes}")
        if self.eager_max is not None and self.eager_max < 0:
            raise LrtsError(f"eager_max must be >= 0, got {self.eager_max}")
