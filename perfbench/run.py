"""Scale-point benchmark: host time per simulated message, end to end and
per layer, on the SMSG, rendezvous, MPI and mini-NAMD paths.

    python3 perfbench/run.py --workload kneighbor_smsg_1k --seed 0 \\
        --seconds 25 --trace 0

Run from the repository root.  Each job is one simulated run to
completion in a fresh interpreter (``job.py``).  With ``--trace 0`` the
command repeats plain jobs for about ``--seconds`` and reports the
medians of the end-to-end metrics in ``BENCHMARK.json``.  With
``--trace 1`` it does the same, then runs one job under cProfile and
reports the per-layer metrics.  Every job's output digest, traced or
not, must match the reference recorded in ``references.json`` for its
workload and input seed, and every job must pass its workload's
invariants and path guards; a job that does not counts as failed.
Host times are scaled to a reference host's speed, sampled by a
calibration loop during each job (``job.SpeedSampler``; ``README.md``
says why).  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import check_mapping

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space for the compiler and the jobs, inside the checkout
TMP = ROOT / ".bench_build" / "perfbench-tmp"
#: references exist for input seeds 0..REFERENCE_SEEDS-1; --seed folds onto them
REFERENCE_SEEDS = 16
#: every run makes at least this many plain jobs (so set-up is a median)
MIN_JOBS = 3
#: a run must end within 180 s: plain jobs stop starting at half of this
#: and a job still running when the run reaches it is killed
BUDGET_S = 150.0
#: environment switches that would put observers on the measured path
_OBSERVERS = ("REPRO_OBSERVE", "REPRO_SANITIZE")


def job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _OBSERVERS}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    return env


def build_core(env: dict) -> dict:
    """Build and load the C engine core before the first timed job."""
    code = ("import json, numpy; from repro._env import env_flag; "
            "from repro.sim import _speed; "
            "print(json.dumps({'pure': env_flag('REPRO_PURE_ENGINE'), "
            "'core': _speed.core is not None, 'error': _speed.build_error, "
            "'numpy': numpy.__version__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import repro: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_job(workload: str, seed: int, traced: bool, env: dict,
            timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed)] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"job timed out after {timeout:.0f} s"]}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"job exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def judge(rec: dict, want_digest: str | None, want_backend: str) -> list:
    """Every reason this job counts as failed."""
    errors = list(rec.get("errors", []))
    if rec.get("backend") not in (None, want_backend):
        errors.append(f"engine backend {rec['backend']} != {want_backend}")
    if rec.get("app_messages") == 0:
        errors.append("the simulated run delivered no application message")
    if "digest" in rec and rec["digest"] != want_digest:
        errors.append(f"digest {rec['digest'][:16]} != reference "
                      f"{(want_digest or 'none recorded')[:16]}")
    return errors


def spread(values: list) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    rel = (q3 - q1) / med if med else 0.0
    return f"median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/med {rel:.1%}  n={len(values)}"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, input_seed: int, backend: str, core: dict) -> dict:
    return {"commit": commit(), "src_sha256": src_digest(),
            "engine_backend": backend, "python": platform.python_version(),
            "numpy": core["numpy"], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "input_seed": input_seed, "seconds": args.seconds,
            "trace": args.trace}


def end_to_end(ok: list) -> dict:
    run_s = [r["run_s"] * r["speed"] for r in ok]
    return {
        "run_s": run_s,
        "host_us_per_msg": [s / r["app_messages"] * 1e6
                            for s, r in zip(run_s, ok)],
        "setup_s": [r["setup_s"] * r["speed"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }


def per_layer(ok: list, traced: dict) -> dict:
    k = traced["speed"]
    out = {name: v * k if name.endswith("_s") else v
           for name, v in traced["layers"].items()}
    out["gc.collections"] = statistics.median(
        r["gc"]["collections"] for r in ok)
    out["gc.gen2.collections"] = statistics.median(
        r["gc"]["gen2_collections"] for r in ok)
    out["gc.pause_s"] = statistics.median(
        r["gc"]["pause_s"] * r["speed"] for r in ok)
    out["trace.run_s"] = traced["run_s"] * k
    out["trace.overhead_x"] = out["trace.run_s"] / statistics.median(
        end_to_end(ok)["run_s"])
    return out


def print_layer_table(metrics: dict) -> None:
    total = metrics["trace.run_s"]
    print(f"per-layer self time under cProfile (traced run {total:.3f} s, "
          f"{metrics['trace.overhead_x']:.2f}x untraced):")
    for name in sorted((k for k in metrics if k.endswith(".self_s")),
                       key=lambda k: -metrics[k]):
        print(f"  {name[:-7]:<18} {metrics[name]:9.4f} s "
              f"{metrics[name] / total:6.1%}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    problems = check_mapping(SRC)
    if problems:
        print("error: layer map out of date:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    TMP.mkdir(parents=True, exist_ok=True)
    env = job_env()
    core = build_core(env)
    backend = "python" if core["pure"] else "c-core"
    if not core["pure"] and not core["core"]:
        print(f"error: the C engine core was expected but did not load: "
              f"{core['error']}", file=sys.stderr)
        return 1

    input_seed = args.seed % REFERENCE_SEEDS
    refs = json.loads((HERE / "references.json").read_text())
    want = refs.get(args.workload, {}).get(str(input_seed))

    t_start = time.perf_counter()
    plain: list[dict] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - t_start
        t0 = time.perf_counter()
        plain.append(run_job(args.workload, input_seed, False, env,
                             timeout=max(BUDGET_S - elapsed, 30.0)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        est = statistics.median(durations)
        # start another job only if the run then ends nearer to
        # --seconds than it would by stopping now
        if len(plain) >= MIN_JOBS and elapsed + est / 2 > args.seconds:
            break
        if elapsed + est > BUDGET_S / 2:  # keep room for the traced job
            break
    traced = None
    if args.trace:
        elapsed = time.perf_counter() - t_start
        traced = run_job(args.workload, input_seed, True, env,
                         timeout=max(170.0 - elapsed, 30.0))

    records = plain + ([traced] if traced else [])
    failed = 0
    for rec in records:
        rec["errors"] = judge(rec, want, backend)
        if rec["errors"]:
            failed += 1
            print(f"FAILED job: {'; '.join(rec['errors'])}")
    ok = [r for r in plain if not r["errors"]]
    imported = sorted({m for r in ok for m in r["setup_imports"]})
    if imported:
        print(f"note: set-up imported {', '.join(imported)}; setup_s "
              f"includes that time (add them to the workload's modules)")

    print("provenance " + json.dumps(provenance(args, input_seed, backend, core)))
    metrics: dict = {}
    if ok:
        e2e = end_to_end(ok)
        for name, values in e2e.items():
            print(f"{name}: {spread(values)}")
        print(f"unscaled wall run_s: {spread([r['run_s'] for r in ok])}")
        print(f"host speed factor: {spread([r['speed'] for r in ok])}")
        if args.trace:
            if traced and not traced["errors"]:
                metrics = per_layer(ok, traced)
                print_layer_table(metrics)
        else:
            metrics = {name: statistics.median(v) for name, v in e2e.items()}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    correct = failed == 0 and set(metrics) == set(units)
    if metrics and set(metrics) != set(units):
        print(f"FAILED: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
