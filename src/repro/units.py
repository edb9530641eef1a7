"""Unit constants and helpers.

The simulation clock is in **seconds** (floats) and sizes are in **bytes**
(ints).  These helpers keep calibration constants readable::

    from repro.units import us, KB, GBps
    latency = 1.2 * us
    bandwidth = 5.9 * GBps        # bytes / second
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------
s = 1.0
ms = 1e-3
us = 1e-6
ns = 1e-9

# --- sizes --------------------------------------------------------------
B = 1
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# --- rates (bytes per second) -------------------------------------------
MBps = 1e6
GBps = 1e9

#: page size used by the registration cost model (Cray XE6 used 4 KB base
#: pages for user allocations unless hugepages were requested).
PAGE_SIZE = 4096


def pages(nbytes: int) -> int:
    """Number of :data:`PAGE_SIZE` pages spanned by ``nbytes`` (≥ 1)."""
    if nbytes <= 0:
        return 1
    return -(-nbytes // PAGE_SIZE)


def fmt_time(seconds: float) -> str:
    """Render a duration with a sensible unit (``1.60us``, ``3.2ms``)."""
    a = abs(seconds)
    if a >= 1.0:
        return f"{seconds:.3g}s"
    if a >= 1e-3:
        return f"{seconds / ms:.3g}ms"
    if a >= 1e-6:
        return f"{seconds / us:.3g}us"
    return f"{seconds / ns:.3g}ns"


def fmt_size(nbytes: int) -> str:
    """Render a byte count the way the paper's x-axes do (``4K``, ``1M``)."""
    if nbytes >= MB and nbytes % MB == 0:
        return f"{nbytes // MB}M"
    if nbytes >= KB and nbytes % KB == 0:
        return f"{nbytes // KB}K"
    return str(nbytes)

