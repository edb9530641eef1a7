"""Run one benchmark job in this interpreter and print its record as JSON.

    PYTHONPATH=src python3 perfbench/job.py --workload NAME --seed N [--traced]

``run.py`` starts a fresh interpreter per job, so one job's peak RSS, GC
generations and warm caches never carry into the next.  Everything is
measured from outside the program: a wrapper around ``Charm.run`` (the
one simulated run of a job) splits set-up from the run, set-up is timed
only after the workload's modules are imported, ``gc.callbacks`` time
the collector, and ``--traced`` runs the simulated run under
cProfile and folds it into layers (:mod:`layers`).  The record's last
line on stdout is the JSON object ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

from layers import Attribution

SRC = Path(__file__).resolve().parents[1] / "src"
#: calibration loop sizes: once before and after a job, and per tick
CAL_SPINS = 3_000_000
TICK_SPINS = 100_000
#: seconds between ticks while a plain job runs
TICK_PERIOD_S = 0.1
#: seconds per calibration iteration on the reference host, a 2.1 GHz
#: Xeon VM with 2 vCPUs; host times are scaled to that host's speed
REF_S_PER_SPIN = 0.18 / CAL_SPINS


class Probe:
    """Timestamps the simulated run and counts GC work inside it."""

    def __init__(self, profiler: cProfile.Profile | None):
        self.profiler = profiler
        self.charm = None
        self.t_run0 = self.t_run1 = 0.0
        self.events0 = 0
        self.app_executes0 = 0
        #: names in sys.modules when the simulated run starts
        self.modules_at_run: set = set()
        self.gc_collections = 0
        self.gc_gen2 = 0
        self.gc_pause_s = 0.0
        self._gc_t0 = None
        self._in_run = False
        #: RegistrationCache instances built during the job (traced only)
        self.regcaches: list = []

    def install(self) -> None:
        from repro.charm.runtime import Charm
        orig_run = Charm.run
        probe = self

        def run(charm, *args, **kwargs):
            if probe.charm is not None:
                raise RuntimeError("the job made a second simulated run")
            probe.charm = charm
            probe.events0 = charm.conv.machine.engine.events_executed
            probe.app_executes0 = charm.app_executes
            probe._in_run = True
            probe.t_run0 = time.perf_counter()
            probe.modules_at_run = set(sys.modules)
            if probe.profiler is not None:
                probe.profiler.enable()
            try:
                return orig_run(charm, *args, **kwargs)
            finally:
                if probe.profiler is not None:
                    probe.profiler.disable()
                probe.t_run1 = time.perf_counter()
                probe._in_run = False

        Charm.run = run
        gc.callbacks.append(self._on_gc)
        if self.profiler is not None:
            from repro.memory.regcache import RegistrationCache
            orig_init = RegistrationCache.__init__

            def init(cache, *args, **kwargs):
                orig_init(cache, *args, **kwargs)
                probe.regcaches.append(cache)

            RegistrationCache.__init__ = init

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_run:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self._gc_t0 = None
            self.gc_collections += 1
            if info["generation"] == 2:
                self.gc_gen2 += 1


def spin(n: int) -> float:
    """Wall seconds for ``n`` iterations of a fixed pure-Python loop.

    The loop allocates no GC-tracked objects and touches no simulator
    code, so no change to the program or its GC policy can move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host's speed while a job runs.

    On a shared host one core's speed drifts by tens of percent over
    seconds, so wall time alone does not compare across runs.  The
    sampler times the calibration loop before and after the job and,
    when ticking, every ``TICK_PERIOD_S`` during it from a SIGALRM
    handler.  Each tick's wall time is recorded, so it can be taken out
    of the phase it interrupted.
    """

    def __init__(self, ticking: bool):
        self.ticking = ticking
        #: seconds per loop iteration, one entry per sample
        self.per_spin: list[float] = []
        #: (start, duration) of every tick
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        dt = spin(TICK_SPINS)
        self.ticks.append((t0, time.perf_counter() - t0))
        self.per_spin.append(dt / TICK_SPINS)

    def __enter__(self) -> "SpeedSampler":
        self.per_spin.append(spin(CAL_SPINS) / CAL_SPINS)
        if self.ticking:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.per_spin.append(spin(CAL_SPINS) / CAL_SPINS)

    def stolen(self, t0: float, t1: float) -> float:
        """Seconds the ticks took out of the interval [t0, t1)."""
        return sum(dt for start, dt in self.ticks if t0 <= start < t1)

    def speed(self) -> float:
        """Factor that scales this job's wall times to the reference host:
        the mean over samples of reference speed / sampled speed."""
        return sum(REF_S_PER_SPIN / s for s in self.per_spin) / len(self.per_spin)


def digest(material) -> str:
    blob = json.dumps(material, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def program_counters(machine, lrts, stats: dict, probe: Probe) -> dict:
    """Counters the program keeps itself, read after the run."""
    net = machine.network
    routed = net.messages_routed
    hops = sum(lk.transfers for lk in net._links.values())
    unexpected = stats.get("max_unexpected") or {}
    return {
        "events": machine.engine.events_executed - probe.events0,
        "messages_routed": routed,
        "hops_per_transfer": hops / routed if routed else 0.0,
        "rndv_frac": stats.get("rendezvous_sent", 0) / max(stats["delivered"], 1),
        "unexpected_max": max(unexpected.values(), default=0),
    }


#: layers whose self time is reported by name; the rest sum into other.self_s
SELF_LAYERS = (
    "sim", "converse", "charm", "lrts", "ugni", "ugni.smsg", "ugni.cq",
    "ugni.rdma", "mpish", "mpish.match", "memory.mempool", "memory.pxshm",
    "hardware", "hardware.nic", "hardware.router", "hardware.link",
    "hardware.memory", "apps", "external",
)

#: metric -> (module, function name) whose calls it counts
NAMED_CALLS = {
    "converse.send.calls": ("repro.converse.scheduler", "send"),
    "charm.invoke.calls": ("repro.charm.runtime", "_invoke"),
    "lrts.sync_send.calls": ("repro.lrts.*", "sync_send"),
    "ugni.smsg.send.calls": ("repro.ugni.smsg", "send"),
    "ugni.rdma.post.calls": ("repro.ugni.rdma", "post"),
    "memory.mempool.alloc.calls": ("repro.memory.mempool", "alloc"),
    "memory.regcache.lookup.calls": ("repro.memory.regcache", "lookup"),
    "hardware.memory.malloc.calls": ("repro.hardware.memory", "malloc"),
    "mpish.isend.calls": ("repro.mpish.world", "isend"),
    "hardware.router.transfer.calls": ("repro.hardware.router", "transfer"),
    "hardware.link.reserve.calls": ("repro.hardware.link", "reserve"),
}


def layer_metrics(att: Attribution, counters: dict, probe: Probe) -> dict:
    out = {f"{lay}.self_s": att.self_s.get(lay, 0.0) for lay in SELF_LAYERS}
    out["other.self_s"] = max(att.total_s() - sum(out.values()), 0.0)
    out["sim.events"] = att.events
    out["hardware.nic.calls"] = att.calls_into.get("hardware.nic", 0)
    for name, (module, fn) in NAMED_CALLS.items():
        out[name] = att.calls(module, fn)
    hits = sum(c.hits for c in probe.regcaches)
    lookups = hits + sum(c.misses for c in probe.regcaches)
    out["memory.regcache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["lrts.rndv_frac"] = counters["rndv_frac"]
    out["mpish.unexpected_max"] = counters["unexpected_max"]
    out["hardware.router.hops_per_transfer"] = counters["hops_per_transfer"]
    return out


def self_test(metrics: dict, counters: dict, delivered: int) -> list:
    """Traced call counts must equal the program's own counters."""
    pairs = (
        ("hardware.router.transfer.calls", counters["messages_routed"],
         "TorusNetwork.messages_routed"),
        ("sim.events", counters["events"], "Engine.events_executed"),
        ("lrts.sync_send.calls", delivered, 'lrts.stats()["delivered"]'),
    )
    return [f"self-test: {name} {metrics[name]} != {label} {want}"
            for name, want, label in pairs if metrics[name] != want]


def run_job(workload: str, seed: int, traced: bool) -> dict:
    from workloads import WORKLOADS
    wl = WORKLOADS[workload]
    for module in wl.modules:
        importlib.import_module(module)
    probe = Probe(cProfile.Profile() if traced else None)
    probe.install()
    record: dict = {"workload": workload, "seed": seed, "traced": traced,
                    "errors": []}
    errors = record["errors"]
    result = None
    # ticks would land in the profile, so a traced job only brackets
    with SpeedSampler(ticking=not traced) as sampler:
        modules0 = set(sys.modules)
        t0 = time.perf_counter()
        try:
            result = wl.run(seed)
        except Exception as exc:  # noqa: BLE001 - a failed job is reported, not raised
            errors.append(f"{type(exc).__name__}: {exc}")
    record["speed"] = sampler.speed()
    if probe.charm is None:
        errors.append("the job made no simulated run")
        return record
    conv = probe.charm.conv
    machine, lrts = conv.machine, conv.lrts
    record["setup_s"] = probe.t_run0 - t0 - sampler.stolen(t0, probe.t_run0)
    record["run_s"] = (probe.t_run1 - probe.t_run0
                       - sampler.stolen(probe.t_run0, probe.t_run1))
    # imports that set-up made anyway; setup_s includes their time
    record["setup_imports"] = sorted(probe.modules_at_run - modules0)
    record["app_messages"] = probe.charm.app_executes - probe.app_executes0
    record["backend"] = "c-core" if machine.engine._core is not None else "python"
    if machine.observer is not None or machine.sanitizer is not None:
        errors.append("observer or sanitizer is on")
    record["gc"] = {"collections": probe.gc_collections,
                    "gen2_collections": probe.gc_gen2,
                    "pause_s": probe.gc_pause_s}
    if result is None:
        return record
    errors.extend(wl.check(result, lrts))
    stats = lrts.stats()
    record["delivered"] = stats["delivered"]
    record["digest"] = digest(wl.digest_material(result))
    if traced:
        counters = program_counters(machine, lrts, stats, probe)
        probe.profiler.create_stats()
        att = Attribution(probe.profiler.stats, SRC)
        record["layers"] = layer_metrics(att, counters, probe)
        errors.extend(self_test(record["layers"], counters, stats["delivered"]))
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    record = run_job(args.workload, args.seed, args.traced)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
