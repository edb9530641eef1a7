"""Per-instance C-core binding: subclass overrides are never bypassed.

The compiled slab core is bound method-by-method onto plain ``Engine``
instances only.  A subclass that overrides *any* forwarded method — even
just ``post_soon`` — must run the pure-Python paths throughout, so its
override sees every call, including internal engine traffic.  A
class-level monkeypatch on ``Engine`` itself must disable binding the
same way.  ``REPRO_PURE_ENGINE`` selects the backend explicitly: ``=1``
forces pure Python, ``=0`` (and every other falsey spelling) keeps the
C core — the flag is parsed by ``env_flag``, not string truthiness.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.sim import _speed
from repro.sim.engine import Engine

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

needs_core = pytest.mark.skipif(
    _speed.core is None,
    reason=f"C core unavailable: {_speed.build_error}")


def run_workload(eng):
    """A small mixed workload; returns the observable firing log."""
    log = []

    def tick(tag):
        log.append((round(eng.now * 1e9), tag))

    eng.call_after(3e-9, tick, "a")
    eng.call_soon(tick, "b")
    h = eng.call_after(5e-9, tick, "cancelled")
    eng.call_after(1e-9, h.cancel)
    eng.post_after(2e-9, tick, "c")
    eng.post_soon(tick, "d")
    eng.run()
    return log


class TestSubclassBinding:
    def test_plain_engine_binds_core(self):
        eng = Engine()
        if _speed.core is not None:
            assert eng._core is not None
        else:
            assert eng._core is None

    def test_subclass_overriding_post_soon_runs_pure(self):
        seen = []

        class CountingEngine(Engine):
            def post_soon(self, fn, *args):
                seen.append(fn)
                return super().post_soon(fn, *args)

        eng = CountingEngine()
        # the core must NOT be bound: binding it would route post_soon
        # (and everything else) around the override
        assert eng._core is None
        log = run_workload(eng)
        assert seen, "the post_soon override never saw the call"
        assert log == run_workload(Engine())

    def test_subclass_overriding_post_at_runs_pure(self):
        posted = []

        class TimeTap(Engine):
            def post_at(self, t, fn, *args):
                posted.append(t)
                return super().post_at(t, fn, *args)

        eng = TimeTap()
        assert eng._core is None
        fired = []
        eng.post_at(1e-9, fired.append, "x")
        eng.run()
        assert posted == [1e-9]
        assert fired == ["x"]

    def test_passthrough_subclass_runs_pure(self):
        class PureEngine(Engine):
            """No overrides at all — still a subclass, still pure."""

        assert PureEngine()._core is None

    @needs_core
    def test_class_monkeypatch_disables_binding(self, monkeypatch):
        calls = []
        orig = Engine.post_soon

        def patched(self, fn, *args):
            calls.append(fn)
            return orig(self, fn, *args)

        monkeypatch.setattr(Engine, "post_soon", patched)
        eng = Engine()
        assert eng._core is None
        eng.post_soon(calls.append, "payload")
        eng.run()
        assert len(calls) == 2  # the patch saw the post, then the event ran

    def test_backends_agree(self):
        class PureEngine(Engine):
            pass

        assert run_workload(Engine()) == run_workload(PureEngine())


def _core_loaded_in_subprocess(flag_value):
    """Import the engine in a child with REPRO_PURE_ENGINE set; report
    whether a fresh Engine instance actually bound the C core."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if flag_value is None:
        env.pop("REPRO_PURE_ENGINE", None)
    else:
        env["REPRO_PURE_ENGINE"] = flag_value
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.sim.engine import Engine; "
         "print('bound' if Engine()._core is not None else 'pure')"],
        env=env, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "bound"


class TestPureEngineFlag:
    @needs_core
    def test_flag_unset_uses_core(self):
        assert _core_loaded_in_subprocess(None)

    @needs_core
    @pytest.mark.parametrize("value", ["0", "", "false", "no", "off"])
    def test_falsey_values_keep_core(self, value):
        # the original bug: any non-empty string (including "0")
        # silently disabled the C core
        assert _core_loaded_in_subprocess(value)

    @pytest.mark.parametrize("value", ["1", "true", "yes"])
    def test_truthy_values_force_pure(self, value):
        assert not _core_loaded_in_subprocess(value)
