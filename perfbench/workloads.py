"""The four benchmark workloads: one simulated job each, run to completion.

Each workload is a closed batch job with one driver and no arrival
schedule.  The seed goes to the machine and to the app's decomposition.
``check`` returns the app invariants and path guards a run must pass, so
a workload that silently stops exercising its layer fails instead of
reporting a gain.  ``digest_material`` is what the output digest covers.
``modules`` are imported before set-up is timed, so ``setup_s`` holds no
import time.

Imported only inside a job process, after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: 1024 single-core nodes: the SMSG cap there is 512 B (paper Eq. 1)
KN_NODES = 1024
KN_ITERS = 4
KN_WARMUP = 1
#: runaway guard for mini-NAMD (kNeighbor's driver carries its own)
NAMD_MAX_EVENTS = 20_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> app result
    run: Callable[[int], Any]
    #: result -> object folded into the output digest
    digest_material: Callable[[Any], Any]
    #: (result, lrts) -> list of failed checks
    check: Callable[[Any, Any], list]
    #: modules the driver imports, loaded before set-up is timed
    modules: tuple[str, ...]


_KN_MODULES = ("repro.apps.kneighbor",)
#: mini-NAMD's decomposition loads numpy.random lazily
_NAMD_MODULES = ("repro.apps.minimd", "numpy.random")


def _kneighbor(size: int, k: int, layer: str) -> Callable[[int], Any]:
    def run(seed: int):
        from repro.apps.kneighbor import kneighbor
        return kneighbor(size, layer=layer, k=k, n_cores=KN_NODES,
                         iters=KN_ITERS, warmup=KN_WARMUP, seed=seed)
    return run


def _kn_digest(result) -> Any:
    return {"iteration_time": result.iteration_time, "stats": result.stats}


def _kn_expected_delivered(k: int) -> int:
    # 2k sends + 2k ping-backs per PE per iteration, plus the n-1
    # spanning-tree messages of the broadcast that starts the job
    n = KN_NODES
    return n * 4 * k * (KN_ITERS + KN_WARMUP) + (n - 1)


def _kn_common(result, k: int) -> list:
    problems = []
    want = _kn_expected_delivered(k)
    got = result.stats.get("delivered")
    if got != want:
        problems.append(f"delivered {got} != n*4k*(iters+warmup)+(n-1) = {want}")
    if not result.iteration_time > 0:
        problems.append(f"iteration_time {result.iteration_time!r} not positive")
    return problems


def _check_smsg(result, _lrts) -> list:
    problems = _kn_common(result, k=2)
    st = result.stats
    if st.get("rendezvous_sent") != 0:
        problems.append(f"rendezvous_sent {st.get('rendezvous_sent')} != 0")
    if st.get("small_sent") != st.get("delivered"):
        problems.append("not every send took the SMSG path")
    return problems


def _check_rndv(result, _lrts) -> list:
    problems = _kn_common(result, k=1)
    st = result.stats
    sends = st.get("small_sent", 0) + st.get("rendezvous_sent", 0)
    frac = st.get("rendezvous_sent", 0) / max(sends, 1)
    if frac < 0.9:
        problems.append(f"rendezvous share {frac:.3f} of sends < 0.9")
    return problems


def _check_mpi(result, lrts) -> list:
    problems = _kn_common(result, k=2)
    if getattr(lrts, "gni", None) is not None:
        problems.append("mpi layer built a uGNI job (SMSG fabric present)")
    world = getattr(lrts, "world", None)
    if world is None:
        problems.append("mpi layer has no mpish world")
    elif world.sends != result.stats.get("sent"):
        problems.append(
            f"mpish isends {world.sends} != app sends {result.stats.get('sent')}")
    return problems


def _run_namd(seed: int):
    from repro.apps.minimd import run_minimd
    return run_minimd("dhfr", 192, steps=3, warmup=2, seed=seed,
                      max_events=NAMD_MAX_EVENTS)


def _namd_digest(result) -> Any:
    return {"step_times": result.step_times, "migrations": result.migrations,
            "layer_stats": result.layer_stats,
            "decomposition": result.decomposition}


def _check_namd(result, lrts) -> list:
    problems = []
    if len(result.step_times) != 5:
        problems.append(f"{len(result.step_times)}/5 steps completed")
    st = result.layer_stats
    for key in ("small_sent", "rendezvous_sent", "intranode_sent"):
        if not st.get(key):
            problems.append(f"{key} is zero")
    pxshm = getattr(lrts, "pxshm", None)
    if pxshm is None or pxshm.messages == 0:
        problems.append("no pxshm intranode traffic")
    return problems


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("kneighbor_smsg_1k",
             _kneighbor(256, 2, "ugni"), _kn_digest, _check_smsg,
             _KN_MODULES),
    Workload("kneighbor_rndv_1k",
             _kneighbor(1024, 1, "ugni"), _kn_digest, _check_rndv,
             _KN_MODULES),
    Workload("kneighbor_mpi_1k",
             _kneighbor(256, 2, "mpi"), _kn_digest, _check_mpi,
             _KN_MODULES),
    Workload("namd_dhfr_192",
             _run_namd, _namd_digest, _check_namd, _NAMD_MODULES),
)}
