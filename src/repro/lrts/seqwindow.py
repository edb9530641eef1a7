"""Receive-side sequence window shared by both reliable transports: ugni
SMSG dedup and rdma RC reordering keep one per directed connection."""

from __future__ import annotations

from typing import Any

#: slot marker for a sequence number whose sender gave up
_RETIRED = object()


class SeqWindow:
    """Every seq ``<= watermark`` is done; ``slots`` parks the arrived (or
    retired) seqs above it, so memory is O(reordering depth), never
    O(messages)."""

    __slots__ = ("watermark", "slots")

    def __init__(self) -> None:
        self.watermark = -1
        self.slots: dict[int, Any] = {}

    def seen(self, seq: int) -> bool:
        return seq <= self.watermark or seq in self.slots

    def accept(self, seq: int, item: Any = None) -> list:
        """Record an unseen ``seq``; returns the items now in order."""
        self.slots[seq] = item
        return self._drain()

    def retire(self, seq: int) -> list:
        """``seq``'s sender gave up, so no copy is owed; returns the items
        the closed gap releases.  Idempotent, and a straggler copy of
        ``seq`` reads as :meth:`seen` afterwards."""
        if not self.seen(seq):
            self.slots[seq] = _RETIRED
        return self._drain()

    def _drain(self) -> list:
        slots = self.slots
        mark = self.watermark
        out = []
        while mark + 1 in slots:
            mark += 1
            item = slots.pop(mark)
            if item is not _RETIRED:
                out.append(item)
        self.watermark = mark
        return out
