#!/usr/bin/env python
"""Reachability sweep: which ``src/repro`` functions does no program run?

Runs every program entry point of the repository under :mod:`cProfile`,
each in its own interpreter, and collects the ``src/repro`` functions
that at least one of them called.  The entry points are:

* the 20 paper exhibits at default scale, rendered and claim-checked as
  ``pytest benchmarks/ --benchmark-only`` does, plus the paper-scale
  (``REPRO_PAPER_SCALE=1``) runs of fig1-fig9a and fig12;
* the four ``perfbench/`` workloads, one untraced job each;
* every ``examples/*.py`` with its default arguments;
* ``python -m repro.observe`` for kNeighbor and ping-pong, and
  ``python -m repro.bench.figures fig4``;
* ``benchmarks/run_all.py`` plain, ``--observe``, ``--sanitize`` and
  under ``REPRO_PURE_ENGINE=1``, each checked against the committed
  baseline's checksums.

Every function defined under ``src/repro`` (methods and nested functions
included; lambdas and comprehensions are not functions here) that no
entry point reached and that :data:`KEEP` does not name is printed, and
the exit status is non-zero if there is any.  A ``KEEP`` name that no
longer exists is an error too, so the table cannot go stale silently.
An entry point that fails also fails the sweep: its coverage would be
incomplete.

Usage::

    python benchmarks/reachability.py                 # full sweep, ~9 min on 2 vCPUs
    python benchmarks/reachability.py --jobs 1 --only fig9a,example:quickstart
    python benchmarks/reachability.py --list          # entry point names
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import importlib.util
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"

#: exhibits also swept at REPRO_PAPER_SCALE=1 (the others take too long)
PAPER_SCALE_EXHIBITS = ("fig1", "fig4", "fig6", "fig8a", "fig8b", "fig8c",
                        "fig9a", "fig12")
PERFBENCH_WORKLOADS = ("kneighbor_smsg_1k", "kneighbor_rndv_1k",
                       "kneighbor_mpi_1k", "namd_dhfr_192")
OBSERVE_RUNS = {
    "kneighbor": ["kneighbor", "--size", "65536", "--layer", "ugni",
                  "--timeline"],
    "pingpong": ["pingpong", "--size", "1024", "--layer", "rdma"],
}
#: entry points that take minutes under the profiler; they start first
SLOW = ("paper:fig12", "fig13", "table2", "example:minimd_namd")
RUN_ALL_MODES = {
    "plain": ([], {}),
    "observe": (["--observe"], {}),
    "sanitize": (["--sanitize"], {}),
    "pure": ([], {"REPRO_PURE_ENGINE": "1"}),
}

#: Every ``__repr__`` stays too: a debugging aid that no program calls.
REPR = "__repr__"

#: Functions no entry point reaches that stay anyway, grouped by reason.
#: Branches reached only at REPRO_PAPER_SCALE=1 need no entry: the sweep
#: runs the paper-scale exhibits (``nqueens.solver.estimate_subtree_nodes``
#: is reached only there).
#: Names are ``module:qualname`` (nested functions as ``outer.<locals>.inner``,
#: a second definition of the same name as ``name#2``).
KEEP: dict[str, tuple[str, ...]] = {
    # safety code: give-up, error and teardown handlers, fault injection and
    # recovery, sanitizer and flight-recorder reports, invariant checks
    "safety": (
        "repro.charm.checkpoint:_preserve_map",
        "repro.charm.checkpoint:_restore_group_indices",
        "repro.faults.injector:FaultInjector._link_down",
        "repro.faults.injector:FaultInjector._link_up",
        "repro.faults.report:fault_report",
        "repro.faults.report:format_fault_report",
        "repro.hardware.link:Link.degrade",
        "repro.hardware.link:Link.effective_bandwidth",
        "repro.hardware.link:Link.fail",
        "repro.hardware.link:Link.restore",
        "repro.hardware.memory:NodeMemory.check_invariants",
        "repro.hardware.router:TorusNetwork.degrade_link",
        "repro.hardware.router:TorusNetwork.fail_link",
        "repro.hardware.router:TorusNetwork.restore_link",
        "repro.hardware.router:TorusNetwork.route_mode",
        "repro.lrts.rdma_layer.collectives:PersistentWindowsMixin._on_p_failed",
        "repro.lrts.rdma_layer.collectives:PersistentWindowsMixin._on_p_teardown",
        "repro.lrts.rdma_layer.collectives:PersistentWindowsMixin._persist_write.<locals>.on_error",
        "repro.lrts.rdma_layer.collectives:PersistentWindowsMixin._try_persist_finalize",
        "repro.lrts.rdma_layer.collectives:PersistentWindowsMixin.destroy_persistent",
        "repro.lrts.rdma_layer.endpoints:RcQueuePair._abandon",
        "repro.lrts.rdma_layer.endpoints:RcQueuePair._giveup",
        "repro.lrts.rdma_layer.endpoints:RcQueuePair._reconnect",
        "repro.lrts.rdma_layer.endpoints:RdmaFabric.release_window",
        "repro.lrts.rdma_layer.layer:RdmaMachineLayer._on_get_failed",
        "repro.lrts.rdma_layer.layer:RdmaMachineLayer._on_rc_giveup",
        "repro.lrts.rdma_layer.layer:RdmaMachineLayer._on_rndv_fail",
        "repro.lrts.rdma_layer.layer:RdmaMachineLayer._on_rts.<locals>.on_error",
        "repro.lrts.registry:available_layers",
        "repro.lrts.seqwindow:SeqWindow.retire",
        "repro.lrts.ugni_layer.layer:UgniMachineLayer._flush_pending",
        "repro.lrts.ugni_layer.layer:UgniMachineLayer._schedule_flush",
        "repro.lrts.ugni_layer.layer:UgniMachineLayer._schedule_flush.<locals>.kick",
        "repro.lrts.ugni_layer.persistent:PersistentMixin._on_persist_teardown",
        "repro.lrts.ugni_layer.persistent:PersistentMixin._persistent_put.<locals>.on_failed",
        "repro.lrts.ugni_layer.persistent:PersistentMixin._try_persist_finalize",
        "repro.lrts.ugni_layer.persistent:PersistentMixin.destroy_persistent",
        "repro.lrts.ugni_layer.reliability:ReliabilityMixin._on_post_failed",
        "repro.lrts.ugni_layer.reliability:ReliabilityMixin._persist_rearm",
        "repro.lrts.ugni_layer.reliability:ReliabilityMixin._post_failed_upcall",
        "repro.lrts.ugni_layer.rendezvous:RendezvousMixin._on_init_tag.<locals>.on_failed",
        "repro.lrts.ugni_layer.rendezvous:RendezvousMixin._on_put_cts.<locals>.on_failed",
        "repro.lrts.ugni_layer.rendezvous:RendezvousMixin._on_rndv_fail",
        "repro.memory.mempool:MemoryPool.check_invariants",
        "repro.memory.mempool:MemoryPool.destroy",
        "repro.observe.core:Observer.on_credit_stall",
        "repro.observe.core:Observer.on_stall",
        "repro.observe.core:Observer.on_violation",
        "repro.observe.flight:FlightDump.render",
        "repro.resilience.manager:ResilienceManager.stats",
        "repro.sanitize.core:Sanitizer._dev_name",
        "repro.sanitize.core:Sanitizer._entry_still_queued",
        "repro.sanitize.core:Sanitizer._region_name",
        "repro.sanitize.core:Sanitizer.on_deregister",
        "repro.sanitize.core:Sanitizer.on_device_double_free",
        "repro.sanitize.core:Sanitizer.on_device_foreign_free",
        "repro.sanitize.core:Sanitizer.on_pool_double_free",
        "repro.sanitize.core:Sanitizer.on_pool_foreign_free",
        "repro.sanitize.core:Sanitizer.on_smsg_drop",
        "repro.sanitize.core:Sanitizer.render",
        "repro.sanitize.core:Sanitizer.report",
        "repro.sanitize.core:Sanitizer.stats",
        "repro.sanitize.core:Violation.__str__",
        "repro.sanitize.core:active_sanitizers",
        "repro.ugni.smsg:SmsgFabric.send.<locals>.on_arrive#2",
        "repro.ugni.smsg:SmsgMessage.credit",
    ),
    # oracles: reference implementations tests compare the fast paths against
    "oracle": (
        "repro.apps.nqueens.solver:valid_prefixes",
        "repro.charm.loadbalancer:max_load",
        "repro.hardware.config:MachineConfig.rdma_path_for",
        "repro.hardware.topology:Dragonfly._check_terminal",
        "repro.hardware.topology:Dragonfly.all_coords",
        "repro.hardware.topology:Dragonfly.dims",
        "repro.hardware.topology:Dragonfly.gateway",
        "repro.hardware.topology:Dragonfly.hop_distance",
        "repro.hardware.topology:Dragonfly.id_of",
        "repro.hardware.topology:Dragonfly.neighbors",
        "repro.hardware.topology:Dragonfly.route",
        "repro.hardware.topology:Torus3D._axis_step",
        "repro.hardware.topology:Torus3D.all_coords",
        "repro.hardware.topology:Torus3D.hop_distance",
        "repro.hardware.topology:Torus3D.id_of",
        "repro.hardware.topology:Torus3D.neighbors",
        "repro.hardware.topology:Torus3D.route",
        "repro.hardware.topology:Torus3D.wrap",
    ),
    # the C-core build: runs only when the compiled engine is missing or stale
    "c-core": (
        "repro.sim._speed:_compile",
    ),
    # pure-Python twins of the compiled core: with the core bound, programs
    # run its C methods and handles; these run under REPRO_PURE_ENGINE=1 or
    # without a compiler (tests/test_engine_equivalence.py diffs both)
    "pure-engine": (
        "repro.sim.engine:Engine._compact",
        "repro.sim.engine:Engine.call_soon",
        "repro.sim.engine:Engine.post_after",
        "repro.sim.engine:Engine.post_soon",
        "repro.sim.engine:Engine.step",
        "repro.sim.engine:EventHandle._live",
        "repro.sim.engine:EventHandle.cancelled",
        "repro.sim.engine:EventHandle.time",
    ),
    # the process pool: runs at --jobs > 1, and _invoke inside the workers,
    # where the sweep's profiler does not follow
    "pool": (
        "repro.parallel.sweep:_invoke",
        "repro.parallel.sweep:_pool_context",
    ),
    # abstract LrtsLayer declarations every machine layer overrides
    "interface": (
        "repro.lrts.interface:LrtsLayer._setup",
        "repro.lrts.interface:LrtsLayer.create_persistent",
        "repro.lrts.interface:LrtsLayer.send_persistent",
        "repro.lrts.interface:LrtsLayer.sync_send",
    ),
    # the only code for an input no entry point produces, driven by tests:
    # same-node device buffers, and a PUT into a region registered with a CQ
    "input-specific": (
        "repro.lrts.gpu_transport:GpuTransportMixin._gpu_send_d2d",
        "repro.ugni.rdma:RdmaEngine.post.<locals>.on_remote",
    ),
    # needed by perfbench: its traced probe wraps RegistrationCache, and its
    # memory.regcache layer rule and metrics name the module
    "perfbench": (
        "repro.memory.regcache:RegistrationCache.__init__",
        "repro.memory.regcache:RegistrationCache.__len__",
        "repro.memory.regcache:RegistrationCache._observe_stats",
        "repro.memory.regcache:RegistrationCache.hit_rate",
        "repro.memory.regcache:RegistrationCache.invalidate",
        "repro.memory.regcache:RegistrationCache.lookup",
        "repro.memory.regcache:RegistrationCache.unpin",
        "repro.memory.regcache:_Entry.__init__",
    ),
    # queries and helpers only tier-1 tests call; each is asserted on by a
    # test that would have to go with it, so its removal is left to a later
    # change (see ROADMAP.md)
    "test-only": (
        "repro.apps.minimd.system:MDSystem.with_patch_grid",
        "repro.bench.harness:Series.at",
        "repro.charm.array:Collection.n_elements",
        "repro.converse.scheduler:PE.now",
        "repro.faults.injector:FaultConfig.any_nonzero",
        "repro.hardware.link:Link.available_at",
        "repro.hardware.memory:MemoryBlock.contains",
        "repro.hardware.memory:MemoryBlock.end",
        "repro.hardware.memory:NodeMemory.largest_free_range",
        "repro.memory.mempool:PoolBlock.end",
        "repro.memory.pxshm:PxshmFabric.pending",
        "repro.memory.pxshm:PxshmFabric.region_memory",
        "repro.mpish.matching:MatchEngine.unexpected_depth",
        "repro.mpish.world:MpiWorld.unexpected_count",
        "repro.observe.core:Observer.digest",
        "repro.observe.core:Observer.snapshot",
        "repro.observe.registry:MetricsRegistry.__len__",
        "repro.observe.registry:MetricsRegistry.gauge",
        "repro.observe.tracer:Span.monotone",
        "repro.observe.tracer:Span.times",
        "repro.sim.engine:Engine.pending",
        "repro.sim.engine:Engine.pending_cancelled",
        "repro.sim.engine:Engine.timeout",
        "repro.sim.process:Process.done",
        "repro.ugni.cq:CompletionQueue.peek",
        "repro.ugni.memreg:RegistrationTable.__len__",
        "repro.ugni.msgq:MsgqFabric.in_flight",
        "repro.lrts.ugni_layer.config:UgniLayerConfig.replace",
    ),
}


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def entry_points() -> dict[str, dict[str, str]]:
    """name -> extra environment; the child looks the name up again."""
    sys.path.insert(0, str(SRC))
    from repro.bench.figures import EXPERIMENTS

    entries: dict[str, dict[str, str]] = {exp: {} for exp in EXPERIMENTS}
    for exp in PAPER_SCALE_EXHIBITS:
        entries[f"paper:{exp}"] = {"REPRO_PAPER_SCALE": "1"}
    for wl in PERFBENCH_WORKLOADS:
        entries[f"perfbench:{wl}"] = {}
    for path in sorted((ROOT / "examples").glob("*.py")):
        entries[f"example:{path.stem}"] = {}
    for app in OBSERVE_RUNS:
        entries[f"observe:{app}"] = {}
    entries["figures:fig4"] = {}
    for mode, (_argv, env) in RUN_ALL_MODES.items():
        entries[f"run_all:{mode}"] = dict(env)
    return entries


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run_entry(name: str, tmp: pathlib.Path) -> None:
    """Run one entry point in this process (profiling is already on)."""
    kind, _, arg = name.rpartition(":")
    if kind in ("", "paper"):
        from repro.bench.figures import run_experiment
        result = run_experiment(arg)
        result.render()
        result.failed_claims()
    elif kind == "perfbench":
        sys.path.insert(0, str(ROOT / "perfbench"))
        job = _load(ROOT / "perfbench" / "job.py", "perfbench_job")
        out = job.run_job(arg, 0, traced=False)
        if out["errors"]:
            raise RuntimeError(f"{name}: {out['errors']}")
    elif kind == "example":
        path = ROOT / "examples" / f"{arg}.py"
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    elif kind == "observe":
        from repro.observe.__main__ import main
        argv = OBSERVE_RUNS[arg] + ["--trace", str(tmp / "trace.json"),
                                    "--metrics", str(tmp / "metrics.jsonl")]
        if main(argv) != 0:
            raise RuntimeError(f"{name} exited non-zero")
    elif kind == "figures":
        from repro.bench.figures import main
        if main([arg]) != 0:
            raise RuntimeError(f"{name}: claims failed")
    elif kind == "run_all":
        run_all = _load(ROOT / "benchmarks" / "run_all.py", "run_all")
        run_all.BENCH_DIR = tmp  # keep the reports out of the tree
        argv = RUN_ALL_MODES[arg][0] + [
            "--rounds", "1", "--jobs", "1", "--label", f"reach-{arg}",
            "--check", str(ROOT / "benchmarks" / "BENCH_baseline.json"),
            # checksums must match; host time under cProfile is not judged
            "--tolerance", "1000"]
        if run_all.main(argv) != 0:
            raise RuntimeError(f"{name}: checksums differ from the baseline")
    else:
        raise KeyError(name)


def child(name: str, out: pathlib.Path) -> None:
    """Profile one entry point; write the reached ``src/repro`` functions."""
    sys.path.insert(0, str(SRC))
    prefix = str(PKG) + os.sep
    with tempfile.TemporaryDirectory() as tmp:
        prof = cProfile.Profile()
        prof.enable()
        try:
            _run_entry(name, pathlib.Path(tmp))
        finally:
            prof.disable()
    prof.create_stats()
    reached = sorted(
        f"{pathlib.Path(fn).relative_to(SRC)}:{line}"
        for fn, line, _func in prof.stats
        if fn.startswith(prefix))
    out.write_text(json.dumps(reached))


# --------------------------------------------------------------------- #
# the function inventory
# --------------------------------------------------------------------- #
def functions() -> dict[str, str]:
    """``relpath:firstlineno`` -> ``module:qualname`` for every def.

    A qualname defined twice (a closure re-bound under the same name) gets
    ``#2``, ``#3``... in source order.
    """
    found: dict[str, str] = {}
    seen: dict[str, int] = {}

    def walk(node, module: str, rel: str, prefix: str) -> None:
        for child_node in ast.iter_child_nodes(node):
            if isinstance(child_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child_node.name
                # a code object's first line is its first decorator's
                first = min([child_node.lineno]
                            + [d.lineno for d in child_node.decorator_list])
                name = f"{module}:{qual}"
                seen[name] = seen.get(name, 0) + 1
                if seen[name] > 1:  # a redefinition, e.g. a wrapping closure
                    name += f"#{seen[name]}"
                found[f"{rel}:{first}"] = name
                walk(child_node, module, rel, qual + ".<locals>.")
            elif isinstance(child_node, ast.ClassDef):
                walk(child_node, module, rel, prefix + child_node.name + ".")
            else:
                walk(child_node, module, rel, prefix)

    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        walk(ast.parse(path.read_text()), module, str(rel), "")
    return found


# --------------------------------------------------------------------- #
# the sweep
# --------------------------------------------------------------------- #
def sweep(names: list[str], jobs: int) -> tuple[set[str], list[str]]:
    entries = entry_points()
    reached: set[str] = set()
    failures: list[str] = []

    def one(name: str) -> None:
        env = {k: v for k, v in os.environ.items()
               if k not in ("REPRO_OBSERVE", "REPRO_SANITIZE",
                            "REPRO_PAPER_SCALE", "REPRO_PURE_ENGINE")}
        env.update(entries[name])
        env["REPRO_BENCH_JOBS"] = "1"  # sweep points must run in-process
        env["PYTHONPATH"] = str(SRC)
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
            out = pathlib.Path(fh.name)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--child", name, str(out)],
            env=env, cwd=ROOT, capture_output=True, text=True)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            failures.append(f"{name}: exit {proc.returncode}\n"
                            + proc.stderr.strip()[-2000:])
            print(f"[reach] {name:32s} FAILED ({dt:.1f} s)", flush=True)
        else:
            reached.update(json.loads(out.read_text()))
            print(f"[reach] {name:32s} {dt:6.1f} s", flush=True)
        out.unlink(missing_ok=True)

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        list(pool.map(one, sorted(names, key=lambda n: n not in SLOW)))
    return reached, failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--jobs", type=int, default=2,
                   help="entry points run at a time (default: %(default)s)")
    p.add_argument("--only", metavar="A,B",
                   help="run only these entry points; the unreached list "
                        "is then only a lower bound on what they reach")
    p.add_argument("--list", action="store_true",
                   help="print the entry point names and exit")
    p.add_argument("--child", nargs=2, metavar=("NAME", "OUT"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.child:
        child(args.child[0], pathlib.Path(args.child[1]))
        return 0
    entries = entry_points()
    if args.list:
        print("\n".join(entries))
        return 0
    names = args.only.split(",") if args.only else list(entries)
    unknown = [n for n in names if n not in entries]
    if unknown:
        raise SystemExit(f"unknown entry points {unknown}; see --list")

    t0 = time.perf_counter()
    reached, failures = sweep(names, args.jobs)
    defined = functions()
    by_name = {qual: key for key, qual in defined.items()}
    kept = {name: reason for reason, group in KEEP.items() for name in group}
    stale = sorted(n for n in kept if n not in by_name)
    kept_reached = sorted(n for n in kept
                          if n in by_name and by_name[n] in reached)
    kept.update((name, "repr") for name in by_name
                if name.rpartition(".")[2] == REPR)
    missed = [qual for key, qual in defined.items() if key not in reached]
    unreached = sorted(qual for qual in missed if qual not in kept)

    print(f"[reach] {len(names)} entry points in "
          f"{time.perf_counter() - t0:.0f} s; {len(defined)} functions, "
          f"{len(defined) - len(missed)} reached, "
          f"{len(missed) - len(unreached)} kept, {len(unreached)} unreached")
    for name in kept_reached:
        print(f"  note: kept but reached ({kept[name]}): {name}")
    for f in failures:
        print(f"  entry point failed: {f}")
    for name in stale:
        print(f"  KEEP names no function: {name}")
    for name in unreached:
        print(f"  unreached: {name}")
    return 1 if (failures or stale or unreached) else 0


if __name__ == "__main__":
    raise SystemExit(main())
