"""Multi-core scale-out: a deterministic process-pool sweep runner.

:mod:`repro.parallel.sweep` runs *independent* sweep points (the
benchmark grids behind every paper figure) across worker processes;
results are byte-identical at any job count (the determinism contract
is documented in DESIGN.md).  The simulation itself
always runs on the sequential :class:`repro.sim.engine.Engine`.
"""

from repro.parallel.sweep import (
    JOBS_ENV,
    SweepPoint,
    resolve_jobs,
    run_sweep,
)

__all__ = [
    "JOBS_ENV",
    "SweepPoint",
    "resolve_jobs",
    "run_sweep",
]
