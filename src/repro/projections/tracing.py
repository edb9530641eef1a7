"""Interval collection: the tracer the scheduler feeds.

The scheduler calls ``tracer.record(pe, start, duration, kind)`` for every
charged interval (kind ``"useful"`` / ``"overhead"``) and for idle gaps
(``"idle"``).  Intervals are binned on the fly — storing hundreds of
millions of raw intervals would dwarf the simulation itself — into
fixed-width per-kind accumulators, which is also exactly what Projections'
time-profile view does.
"""

from __future__ import annotations

import numpy as np

KINDS = ("useful", "overhead", "idle")


class UtilizationTracer:
    """Time-binned utilization accumulator across all PEs."""

    def __init__(self, bin_width: float = 1e-3, n_pes: int | None = None,
                 max_bins: int = 1_000_000):
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self.n_pes = n_pes
        self.max_bins = max_bins
        #: kind -> growable array of accumulated seconds per bin
        self._bins: dict[str, np.ndarray] = {
            k: np.zeros(64, dtype=np.float64) for k in KINDS
        }
        self._hwm = 0  # highest bin index touched + 1
        self.total: dict[str, float] = {k: 0.0 for k in KINDS}

    def record(self, pe_rank: int, start: float, duration: float, kind: str) -> None:
        if duration <= 0.0:
            return
        if kind not in self._bins:
            kind = "overhead"
        self.total[kind] += duration
        arr = self._bins[kind]
        first = int(start / self.bin_width)
        end = start + duration
        last = int(end / self.bin_width)
        # an interval ending exactly on a bin edge must not touch the
        # next (empty) bin
        if last > first and last * self.bin_width >= end:
            last -= 1
        if last >= self.max_bins:
            raise ValueError(
                f"trace bin {last} exceeds max_bins={self.max_bins}; "
                f"increase bin_width"
            )
        if last >= len(arr):
            for k in KINDS:
                old = self._bins[k]
                grown = np.zeros(max(last + 1, 2 * len(old)), dtype=np.float64)
                grown[: len(old)] = old
                self._bins[k] = grown
            arr = self._bins[kind]
        if last + 1 > self._hwm:
            self._hwm = last + 1
        if first == last:
            arr[first] += duration
            return
        # split across bins
        t = start
        end = start + duration
        for b in range(first, last + 1):
            edge = min(end, (b + 1) * self.bin_width)
            arr[b] += edge - t
            t = edge

    # -- outputs -----------------------------------------------------------
    def bins(self, kind: str) -> np.ndarray:
        return self._bins[kind][: self._hwm]

    @property
    def n_bins(self) -> int:
        return self._hwm
