"""The reachability sweep's ``KEEP`` table stays valid against the source.

``benchmarks/reachability.py`` takes about nine minutes, so the unit suite
checks only its cheap half: every ``KEEP`` name still names a function,
and the function inventory keys definitions the way cProfile does.  A
deletion that leaves a stale ``KEEP`` entry fails here, not only in the
full sweep.
"""

import importlib.util
from pathlib import Path

from repro.sim import process

ROOT = Path(__file__).resolve().parent.parent


def _load_reachability():
    spec = importlib.util.spec_from_file_location(
        "reachability", ROOT / "benchmarks" / "reachability.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_keep_names_existing_functions():
    reach = _load_reachability()
    names = set(reach.functions().values())
    stale = [n for group in reach.KEEP.values() for n in group
             if n not in names]
    assert stale == []


def test_inventory_keys_match_code_objects():
    # cProfile keys a function by its code object's first line, which for
    # a decorated function is the first decorator's line
    found = _load_reachability().functions()
    for qual, fn in (("Process.done", process.Process.done.fget),
                     ("Process._resume", process.Process._resume)):
        key = f"repro/sim/process.py:{fn.__code__.co_firstlineno}"
        assert found[key] == f"repro.sim.process:{qual}"
