"""The observability layer: metrics, causal tracing, flight recorder.

The contract under test (DESIGN.md §12):

* **observer-only** — simulated results are bit-identical with
  observability on or off, at any ``--jobs`` count, sanitizer on or
  off;
* **causal tracing** — every delivered message owns a complete span
  (``send`` → ``deliver`` → ``exec``) with monotone non-decreasing
  engine-clock stage times, on all three machine layers, including under
  injected faults;
* **deterministic metrics** — the sha256 digest of the merged snapshot
  is a pure function of the simulated event order;
* **flight recorder** — reliability give-ups, sanitizer violations, and
  engine stalls each leave a postmortem dump behind.
"""

import json

import pytest

from repro import observe
from repro.apps.kneighbor import kneighbor
from repro.converse.scheduler import Message
from repro.faults import FaultConfig
from repro.faults.report import fault_report
from repro.hardware import Machine
from repro.hardware.config import MachineConfig, tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.observe import (
    FlightRecorder,
    MessageTracer,
    MetricsRegistry,
    chrome_trace,
    format_timeline,
    pe_utilization,
)
from repro.units import KB

#: small retry budget + fast backoff so give-up happens quickly
FAST = dict(reliability=True, max_retries=3,
            retry_backoff_base=2e-6, retry_backoff_max=8e-6)

LAYERS = ("ugni", "mpi", "rdma")


def observed_kneighbor(layer="ugni", size=4 * KB, iters=5, **cfg_kw):
    """Run one observed kNeighbor and return (result, observer)."""
    observe.clear_registry()
    cfg = MachineConfig(observe=True, **cfg_kw)
    result = kneighbor(size, layer=layer, iters=iters, config=cfg)
    return result, observe.active_observers()[0]


# --------------------------------------------------------------------- #
# installation (mirrors the sanitizer's opt-in matrix)
# --------------------------------------------------------------------- #
class TestInstallation:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBSERVE", raising=False)
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is None
        assert m.engine.observer is None
        assert m.network.observer is None

    def test_config_flag_enables(self):
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        assert m.observer is not None
        assert m.engine.observer is m.observer
        assert m.network.observer is m.observer

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVE", "1")
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is not None

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVE", "0")
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is None

    def test_registry_tracks_and_clears(self):
        observe.clear_registry()
        Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        assert len(observe.active_observers()) == 2
        observe.clear_registry()
        assert observe.active_observers() == []


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_gauges_hists(self):
        reg = MetricsRegistry()
        reg.inc("msgs")
        reg.inc("msgs", 2)
        reg.gauge("depth", 7)
        reg.observe("lat", 1.5e-5, 3.0)  # bin 1 at default 1e-5 width
        reg.observe("lat", 1.9e-5, 5.0)  # same bin
        snap = reg.snapshot()
        assert snap["counter/msgs"] == 3
        assert snap["gauge/depth"] == 7
        assert snap["hist/lat/1"] == [2, 8.0]

    def test_sources_fold_nested_dicts(self):
        reg = MetricsRegistry()
        reg.register_source("pool", lambda: {"live": 2, "by_size": {64: 1}})
        snap = reg.snapshot()
        assert snap["gauge/pool/live"] == 2
        assert snap["gauge/pool/by_size/64"] == 1

    def test_source_name_collision_gets_suffix(self):
        reg = MetricsRegistry()
        reg.register_source("pool", lambda: 1)
        reg.register_source("pool", lambda: 2)
        snap = reg.snapshot()
        assert snap["gauge/pool"] == 1
        assert snap["gauge/pool#2"] == 2

    def test_digest_stable(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.inc("x", 5)
            reg.gauge("engine/now", 1.0)
        assert a.digest() == b.digest()
        b.gauge("engine/now", 2.0)
        assert a.digest() != b.digest()


# --------------------------------------------------------------------- #
# causal tracing across all three machine layers
# --------------------------------------------------------------------- #
class TestCausalTracing:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_spans_complete_and_monotone(self, layer):
        _, obs = observed_kneighbor(layer=layer)
        spans = obs.tracer.delivered_spans()
        assert spans, "no delivered spans traced"
        for span in spans:
            assert span.has("send") and span.has("deliver") and span.has("exec")
            assert span.monotone, (
                f"non-monotone stage times on {layer}: {span.stages}")

    @pytest.mark.parametrize("layer", LAYERS)
    def test_trace_ids_monotone_in_send_order(self, layer):
        _, obs = observed_kneighbor(layer=layer)
        send_times = [(min(s.times("send")), s.trace_id)
                      for s in obs.tracer.spans.values() if s.has("send")]
        ordered = sorted(send_times)
        assert [tid for _, tid in ordered] == sorted(
            tid for _, tid in send_times)

    def test_internode_spans_cross_the_lrts_layer(self):
        _, obs = observed_kneighbor(layer="ugni")
        internode = [s for s in obs.tracer.delivered_spans()
                     if s.has("lrts")]
        assert internode, "expected internode messages through the layer"
        # ugni's rendezvous round-trips were derived from the lrts stage
        assert obs.metrics.snapshot().get("counter/rndv/roundtrips", 0) > 0

    def test_tracing_survives_chaos(self):
        """Lossy fabric + software reliability: retransmissions repeat
        ``tx`` but every *delivered* span stays complete and monotone."""
        observe.clear_registry()
        cfg = tiny_config(cores_per_node=2)
        cfg = cfg.replace(observe=True)
        m = Machine(n_nodes=4, config=cfg, seed=3)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="ugni",
            layer_config=UgniLayerConfig(**FAST),
            faults=FaultConfig(smsg_drop_rate=0.3))
        got = []
        h = conv.register_handler(lambda pe, msg: got.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(20):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        obs = m.observer
        assert got, "reliability should deliver most messages"
        delivered = obs.tracer.delivered_spans()
        assert len(delivered) >= len(got)
        for span in delivered:
            assert span.monotone
            assert span.has("send") and span.has("exec")
        # injected drops were observed as retransmissions
        snap = obs.metrics.snapshot()
        assert snap.get("counter/fault/smsg_drop", 0) > 0
        assert snap.get("counter/recovery/retransmit", 0) > 0

    def test_tracer_capacity_evicts_oldest(self):
        tracer = MessageTracer(capacity=3)
        for i in range(5):
            tracer.mint(0, 1, 64)
        assert len(tracer.spans) == 3
        assert tracer.evicted == 2
        assert tracer.minted() == 5
        tracer.stage(1, "send", 0.0)  # evicted: silently ignored
        assert tracer.span(1) is None


# --------------------------------------------------------------------- #
# metrics determinism (the digest contract)
# --------------------------------------------------------------------- #
class TestMetricsDeterminism:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_digest_reproducible(self, layer):
        observed_kneighbor(layer=layer)
        d1 = observe.metrics_digest()
        observed_kneighbor(layer=layer)
        d2 = observe.metrics_digest()
        assert d1 == d2

    def test_digest_unchanged_by_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        observed_kneighbor()
        plain = observe.metrics_digest()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        observed_kneighbor()
        assert observe.metrics_digest() == plain

    def test_results_identical_observe_on_or_off(self):
        on, _ = observed_kneighbor()
        off = kneighbor(4 * KB, layer="ugni", iters=5,
                        config=MachineConfig())
        assert repr(on.iteration_time) == repr(off.iteration_time)

    def test_engine_and_pool_stats_exported(self):
        _, obs = observed_kneighbor(size=2 * KB, iters=10)
        snap = observe.collect_snapshot()
        engine_keys = sorted(k for k in snap if k.startswith("gauge/engine/"))
        assert engine_keys == ["gauge/engine/events", "gauge/engine/now"]
        assert snap["gauge/engine/events"] == obs.machine.engine.events_executed
        pool_keys = [k for k in snap if k.startswith("gauge/pool/")]
        assert pool_keys, "mempool occupancy missing from the snapshot"

    def test_crosslayer_observers_merge_deterministically(self):
        observe.clear_registry()
        for layer in LAYERS:
            kneighbor(2 * KB, layer=layer, iters=3,
                      config=MachineConfig(observe=True))
        assert len(observe.active_observers()) == 3
        merged = observe.collect_snapshot()
        # counters add across observers: 3 runs' messages, not 1
        one = observe.active_observers()[0].snapshot()
        assert merged["counter/msg/sent"] > one["counter/msg/sent"]
        d1 = observe.metrics_digest(snapshot=merged)
        observe.clear_registry()
        for layer in LAYERS:
            kneighbor(2 * KB, layer=layer, iters=3,
                      config=MachineConfig(observe=True))
        assert observe.metrics_digest() == d1


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_dump_on_reliability_giveup(self):
        """100% drop + tiny retry budget: every give-up leaves a dump
        whose ring holds the retransmissions that led up to it."""
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=0)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="ugni",
            layer_config=UgniLayerConfig(**FAST),
            faults=FaultConfig(smsg_drop_rate=1.0))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(3):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        obs = m.observer
        assert layer.stats()["rel_failed"] == 3
        giveups = [d for d in obs.flight.dumps
                   if d.reason == "recovery:give_up"]
        assert len(giveups) == 3
        dump = giveups[-1]
        retransmits = [r for r in dump.records if r.event == "retransmit"]
        assert retransmits
        # the ring keeps each event's detail, not just its name
        for rec in retransmits:
            assert rec.category == "recovery"
            assert isinstance(rec.detail["seq"], int)
            assert 1 <= rec.detail["attempt"] <= FAST["max_retries"]
        assert "give_up" in dump.render() or "retransmit" in dump.render()
        snap = obs.metrics.snapshot()
        assert snap["counter/recovery/give_up"] == 3

    def test_dump_on_engine_stall(self):
        observe.clear_registry()
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))

        def tick():
            m.engine.call_after(1e-9, tick)

        m.engine.call_after(1e-9, tick)
        with pytest.raises(Exception, match="max_events"):
            m.engine.run(max_events=50)
        assert any(d.reason == "engine-stall" for d in m.observer.flight.dumps)

    def test_ring_is_bounded(self):
        observe.clear_registry()
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        obs = m.observer
        for i in range(1000):
            obs.flight.note(i * 1e-6, "fault", "synthetic", seq=i)
        assert len(obs.flight.records) == 256
        assert obs.flight.dropped == 744
        dump = obs.flight.dump("test", 1.0)
        assert len(dump.records) == 256 and dump.dropped == 744
        # the survivors are the newest records, oldest first
        assert [r.detail["seq"] for r in dump.records] == list(range(744, 1000))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# --------------------------------------------------------------------- #
# fault report folding (the observer is the single event channel)
# --------------------------------------------------------------------- #
class TestFaultReportFolding:
    def test_observer_counts_match_trace_counts(self):
        """The report's counts equal the injector's and the reliability
        layer's own tallies of the same events."""
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=1)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="ugni",
            layer_config=UgniLayerConfig(**FAST),
            faults=FaultConfig(smsg_drop_rate=0.4))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(10):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        rep = fault_report(observer=m.observer)
        assert rep["fault"]["smsg_drop"] == m.faults.smsg_dropped > 0
        assert rep["recovery"]["retransmit"] == layer.rel_retransmits > 0

    def test_rdma_giveups_reach_the_report(self):
        """The rdma layer's RC give-ups land in the same summary."""
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=1)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="rdma",
            layer_config=RdmaLayerConfig(retry_count=1),
            faults=FaultConfig(smsg_drop_rate=0.3))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(20):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        rep = fault_report(observer=m.observer)
        assert rep["recovery"]["rc_giveup"] == layer.fabric.rc_giveups > 0
        assert rep["recovery"]["rc_giveup"] == layer.rc_lost

    def test_rdma_failed_connect_giveups_counted_once(self):
        """WQEs abandoned because the UD handshake never completes count
        in ``rc_giveups`` exactly like retry-exhausted ones."""
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=1)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="rdma",
            layer_config=RdmaLayerConfig(retry_count=1),
            faults=FaultConfig(smsg_drop_rate=1.0))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(5):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        rep = fault_report(observer=m.observer)
        assert layer.fabric.qp_connects == 0  # the handshake never completed
        assert (layer.fabric.rc_giveups == layer.rc_lost
                == rep["recovery"]["rc_giveup"] > 0)


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #
class TestExport:
    def test_chrome_trace_structure(self, tmp_path):
        _, obs = observed_kneighbor()
        doc = chrome_trace(obs)
        json.dumps(doc)  # serializable
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e"} <= phases
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends == len(
            [s for s in obs.tracer.spans.values() if s.stages])
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_timeline_and_utilization(self):
        _, obs = observed_kneighbor()
        util = pe_utilization(obs)
        assert util, "observer should double as the per-PE tracer"
        assert any("useful" in kinds or "overhead" in kinds
                   for kinds in util.values())
        text = format_timeline(obs)
        assert "pe0" in text and "busy" in text

    def test_timeline_kept_alongside_projections_tracer(self):
        """An explicit Projections tracer hangs off the observer: the
        observer's timeline still fills, and the profile is unchanged."""
        import numpy as np
        from repro.apps.nqueens import run_nqueens

        observe.clear_registry()
        on = run_nqueens(8, 4, 8, config=MachineConfig(observe=True),
                         trace_bin=1e-4)
        obs = observe.active_observers()[0]
        assert sorted(obs.timeline) == list(range(8))
        off = run_nqueens(8, 4, 8, config=MachineConfig(), trace_bin=1e-4)
        assert on.total_time == off.total_time
        for kind in ("useful", "overhead", "idle"):
            assert np.array_equal(getattr(on.profile, kind),
                                  getattr(off.profile, kind))

    def test_cli_writes_artifacts(self, tmp_path, capsys):
        from repro.observe.__main__ import main
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        rc = main(["kneighbor", "--size", "2048", "--iters", "3",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        rows = [json.loads(line)
                for line in metrics.read_text().splitlines()]
        assert rows[0]["app"] == "kneighbor"
        assert rows[0]["metrics_digest"]
        assert rows[0]["metrics"]["counter/msg/sent"] > 0
