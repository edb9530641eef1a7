"""Fold a cProfile run of the simulator into the layers of the paper's Fig. 1.

Every module under ``src/repro`` belongs to one layer.  A rule names a
module exactly (``repro.hardware.link``) or a package subtree
(``repro.sim.*``); the most specific matching rule wins, so a new module
in an existing package joins its package's layer.  :func:`check_mapping`
fails when a module matches no rule or a rule matches no module, which
catches a rename that would silently move a layer's time elsewhere.

Self time of a function outside ``src/repro`` (builtins, stdlib, numpy)
is charged to the layer of the function that called it, using the
per-caller split cProfile records.  Builtin methods of the compiled
engine core (``repro.sim._speedups``) are charged to ``sim``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

#: layer -> module patterns
RULES: dict[str, tuple[str, ...]] = {
    "sim": ("repro.sim.*",),
    "converse": ("repro.converse.*",),
    "charm": ("repro.charm.*",),
    "lrts": ("repro.lrts.*",),
    "ugni": ("repro.ugni.*",),
    "ugni.smsg": ("repro.ugni.smsg",),
    "ugni.cq": ("repro.ugni.cq",),
    "ugni.rdma": ("repro.ugni.rdma",),
    "mpish": ("repro.mpish.*",),
    "mpish.match": ("repro.mpish.matching",),
    "memory": ("repro.memory.*",),
    "memory.mempool": ("repro.memory.mempool",),
    "memory.regcache": ("repro.memory.regcache",),
    "memory.pxshm": ("repro.memory.pxshm",),
    "hardware": ("repro.hardware.*",),
    "hardware.nic": ("repro.hardware.nic",),
    "hardware.router": ("repro.hardware.router", "repro.hardware.topology"),
    "hardware.link": ("repro.hardware.link",),
    "hardware.memory": ("repro.hardware.memory",),
    "apps": ("repro.apps.*",),
    "bench": ("repro.bench.*",),
    "faults": ("repro.faults.*",),
    "observe": ("repro.observe.*",),
    "sanitize": ("repro.sanitize.*",),
    "resilience": ("repro.resilience.*",),
    "projections": ("repro.projections.*",),
    "parallel": ("repro.parallel.*",),
    "util": ("repro", "repro._env", "repro.errors", "repro.units"),
}

#: time spent in code outside src/repro that was itself called from
#: outside src/repro (e.g. numpy internals calling numpy)
EXTERNAL = "external"

_ENGINE_CORE = "repro.sim._speedups"


def _covers(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        pkg = pattern[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == pattern


def _specificity(pattern: str) -> tuple[int, int]:
    # an exact module beats the subtree of the same package
    if pattern.endswith(".*"):
        return pattern.count(".") - 1, 0
    return pattern.count("."), 1


def resolve(module: str) -> str | None:
    """The layer owning ``module``, or None when no rule covers it."""
    best, best_key = None, None
    for layer, patterns in RULES.items():
        for pat in patterns:
            if _covers(pat, module):
                key = _specificity(pat)
                if best_key is None or key > best_key:
                    best, best_key = layer, key
    return best


def source_modules(src_dir: Path) -> list[str]:
    """Dotted names of every ``.py`` module under ``src_dir/repro``."""
    mods = []
    for path in sorted((src_dir / "repro").rglob("*.py")):
        parts = list(path.relative_to(src_dir).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        mods.append(".".join(parts))
    return mods


def check_mapping(src_dir: Path) -> list[str]:
    """Problems with the rule table against the modules on disk."""
    problems = []
    mods = source_modules(src_dir)
    if not mods:
        return [f"no modules under {src_dir / 'repro'}"]
    patterns = [p for pats in RULES.values() for p in pats]
    for pat in sorted(set(p for p in patterns if patterns.count(p) > 1)):
        problems.append(f"pattern {pat!r} is listed twice")
    for mod in mods:
        if resolve(mod) is None:
            problems.append(f"module {mod} maps to no layer")
    for layer, pats in RULES.items():
        for pat in pats:
            if not any(_covers(pat, m) and resolve(m) == layer for m in mods):
                problems.append(f"rule {pat!r} ({layer}) owns no module")
    return problems


class Attribution:
    """Per-layer self time and call counts from one cProfile stats dict.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``{(file, line, name): (prim_calls, calls, tottime, cumtime, callers)}``
    with ``callers[key] = (calls, prim_calls, tottime, cumtime)``.
    """

    def __init__(self, stats: dict, src_dir: Path):
        self._stats = stats
        self._root = os.path.join(os.path.realpath(src_dir), "")
        self._layer_cache: dict[tuple, str | None] = {}
        self.module_of: dict[tuple, str] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        #: calls into a layer from any other layer (engine callbacks included)
        self.calls_into: dict[str, int] = defaultdict(int)
        #: calls per (module, function name), for named entry points
        self.fn_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.events = 0
        self._fold()

    def layer(self, key: tuple) -> str | None:
        if key in self._layer_cache:
            return self._layer_cache[key]
        filename, _, name = key
        out = None
        if filename == "~":
            if _ENGINE_CORE in name:
                out = "sim"
        else:
            real = os.path.realpath(filename)
            if real.startswith(self._root):
                rel = Path(real[len(self._root):]).with_suffix("")
                parts = list(rel.parts)
                if parts[-1] == "__init__":
                    parts.pop()
                mod = ".".join(parts)
                self.module_of[key] = mod
                out = resolve(mod)
        self._layer_cache[key] = out
        return out

    def _is_engine_loop(self, key: tuple) -> bool:
        filename, _, name = key
        if filename == "~":
            return _ENGINE_CORE in name and "'run'" in name
        return name == "run" and self.module_of.get(key) == "repro.sim.engine"

    def _fold(self) -> None:
        for key, (_, calls, tottime, _, callers) in self._stats.items():
            lay = self.layer(key)
            mod = self.module_of.get(key)
            if mod is not None:
                self.fn_calls[(mod, key[2])] += calls
            for ckey, (ccalls, _, ctt, _) in callers.items():
                clay = self.layer(ckey)
                if lay is None:
                    self.self_s[clay or EXTERNAL] += ctt
                elif clay != lay:
                    self.calls_into[lay] += ccalls
                if (self._is_engine_loop(ckey) and key[0] != "~"
                        and mod != "repro.sim.engine"):
                    # a callback the run loop fired; the pure-Python loop's
                    # own helpers live in repro.sim.engine
                    self.events += ccalls
            if lay is not None:
                self.self_s[lay] += tottime
            elif not callers:
                self.self_s[EXTERNAL] += tottime

    def calls(self, module: str, name: str) -> int:
        """Calls to functions called ``name`` defined in ``module``
        (``module.*`` sums over a package)."""
        return sum(n for (mod, fn), n in self.fn_calls.items()
                   if fn == name and _covers(module, mod))

    def total_s(self) -> float:
        return sum(self.self_s.values())
