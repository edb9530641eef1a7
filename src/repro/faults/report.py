"""Summaries of fault and recovery activity from an observer.

The injector reports faults through ``Observer.on_fault``; the
reliability layers and the resilience manager report recovery work
(retransmits, duplicate drops, post retries, persistent-channel re-arms,
RC give-ups, restarts) through ``Observer.on_recovery``.  Both land in
the observer's metrics registry as ``counter/fault/<event>`` and
``counter/recovery/<event>``; these helpers fold them into the
per-event counts the ablation benchmark and the Projections profile
report alongside the timing numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Any


def fault_report(observer: Any = None,
                 resilience: Any = None) -> dict[str, dict[str, int]]:
    """Per-event counts for the ``fault`` and ``recovery`` categories.

    Pass an observer (whose ``counter/fault/*`` and
    ``counter/recovery/*`` metrics are read), a
    :class:`~repro.resilience.ResilienceManager` (whose
    checkpoint/crash/restart counters land under ``recovery``), or both
    — counts are merged by taking the max per event, since the manager
    also reports its events to the observer.  Manager counters matter
    when the crashed incarnations' observers are gone: the manager
    outlives every restart.
    """
    out: dict[str, Counter] = {"fault": Counter(), "recovery": Counter()}
    if observer is not None:
        for key, value in observer.snapshot().items():
            for cat in out:
                prefix = f"counter/{cat}/"
                if key.startswith(prefix):
                    out[cat][key[len(prefix):]] = int(value)
    if resilience is not None:
        for event, n in resilience.stats().items():
            out["recovery"][event] = max(out["recovery"][event], int(n))
    return {cat: dict(cnt) for cat, cnt in out.items()}


def format_fault_report(observer: Any = None, resilience: Any = None) -> str:
    """Human-readable fault/recovery summary (one line per event kind)."""
    rep = fault_report(observer, resilience)
    lines = []
    for cat in ("fault", "recovery"):
        events = rep[cat]
        if not events:
            continue
        lines.append(f"{cat}:")
        for event, n in sorted(events.items()):
            lines.append(f"  {event:<20} {n}")
    if not lines:
        return "no fault or recovery events recorded"
    return "\n".join(lines)
