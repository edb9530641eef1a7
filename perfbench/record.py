"""Record the reference output digests that run.py checks every job against.

    python3 perfbench/record.py

Runs every workload once per input seed (0..REFERENCE_SEEDS-1), two jobs
at a time, and writes ``references.json`` afresh.  A job that fails its
own invariants or path guards is not recorded.  Re-record only for a
change that is meant to alter simulated output, and say so where the
change is described.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, REFERENCE_SEEDS, TMP, build_core, job_env, run_job
from workloads import WORKLOADS

#: jobs run side by side
JOBS = 2


def main() -> int:
    TMP.mkdir(parents=True, exist_ok=True)
    env = job_env()
    build_core(env)
    tasks = [(w, s) for w in sorted(WORKLOADS) for s in range(REFERENCE_SEEDS)]
    with ThreadPoolExecutor(JOBS) as pool:
        recs = list(pool.map(
            lambda t: run_job(t[0], t[1], False, env, timeout=600), tasks))
    refs: dict = {}
    bad = 0
    for (w, s), rec in zip(tasks, recs):
        if rec.get("errors") or "digest" not in rec:
            print(f"{w} seed {s}: {rec.get('errors')}", file=sys.stderr)
            bad += 1
            continue
        refs.setdefault(w, {})[str(s)] = rec["digest"]
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
