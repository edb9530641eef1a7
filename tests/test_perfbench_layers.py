"""The perfbench layer map stays valid against the source tree.

``perfbench/run.py`` fails every run when a module under ``src/repro``
maps to no layer or a rule in ``perfbench/layers.py`` owns no module, so
a module deletion or rename can break the benchmark.  This test catches
that in the unit suite.  It imports the file by path and changes nothing
under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_layer_map_matches_source_tree():
    assert _load_layers().check_mapping(ROOT / "src") == []
