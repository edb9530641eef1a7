"""Persistent RMA collectives: bit-identical across layers and transports."""

import pytest

from repro import sanitize
from repro.apps.collectives_app import run_alltoallv
from repro.converse.collectives import CollectiveEngine
from repro.errors import CharmError
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime

DF = MachineConfig(topology="dragonfly")

#: (layer, machine config) — every registered fabric
FABRICS = [("ugni", None), ("mpi", None), ("rdma", DF)]


class TestDigestInvariance:
    def test_alltoallv_identical_everywhere(self):
        digests = {
            (layer, algo): run_alltoallv(n_pes=6, layer=layer, algorithm=algo,
                                         config=cfg).digest
            for layer, cfg in FABRICS
            for algo in ("tree", "persistent")
        }
        assert len(set(digests.values())) == 1, digests

    def test_single_rank_degenerate(self):
        r = run_alltoallv(n_pes=1, layer="ugni", algorithm="persistent")
        assert r.completed == 1


class TestPersistentTransport:
    def test_rdma_uses_windows(self):
        r = run_alltoallv(n_pes=6, layer="rdma", algorithm="persistent",
                          config=DF)
        assert r.stats["persistent_sent"] > 0
        assert r.stats["persistent_failed"] == 0

    def test_ugni_uses_persistent_messages(self):
        r = run_alltoallv(n_pes=6, layer="ugni", algorithm="persistent")
        assert r.stats["persistent_sent"] > 0

    def test_mpi_falls_back_to_plain_sends(self):
        """mpi has no persistent capability; the pattern still completes."""
        r = run_alltoallv(n_pes=6, layer="mpi", algorithm="persistent")
        assert r.completed == 6
        assert "persistent_sent" not in r.stats

    def test_channels_are_reused_across_operations(self):
        """Back-to-back collectives ride the same pre-negotiated windows."""
        conv, lrts = make_runtime(n_nodes=4, layer="rdma",
                                  config=DF.replace(cores_per_node=1))
        coll = CollectiveEngine(conv, algorithm="persistent")
        from repro.converse.scheduler import Message

        rounds: list[int] = []

        def go(pe, cid):
            parts = {dst: (1024, f"{pe.rank}->{dst}") for dst in range(4)}
            coll.alltoallv(pe, cid, parts,
                           lambda p, items: rounds.append(p.rank))

        hid = conv.register_handler(lambda pe, m: go(pe, m.payload))
        for rank in range(4):
            conv.send_from_outside(rank, Message(hid, rank, rank, 0, "op1"))
        conv.run()
        first_connects = lrts.stats()["qp_connects"]
        for rank in range(4):
            conv.send_from_outside(rank, Message(hid, rank, rank, 0, "op2"),
                                   at=conv.machine.engine.now + 1e-6)
        conv.run()
        assert len(rounds) == 8
        # second round created no new channels and no new connections
        assert lrts.stats()["qp_connects"] == first_connects

    def test_unknown_algorithm_rejected(self):
        conv, _ = make_runtime(n_nodes=2, layer="mpi")
        with pytest.raises(CharmError):
            CollectiveEngine(conv, algorithm="hypercube")


class TestChaos:
    def test_alltoallv_survives_faults_with_sanitizer(self):
        sanitize.clear_registry()
        try:
            cfg = DF.replace(sanitize=True)
            clean = run_alltoallv(n_pes=6, layer="rdma",
                                  algorithm="persistent", config=cfg, seed=2)
            faulty = run_alltoallv(
                n_pes=6, layer="rdma", algorithm="persistent", config=cfg,
                seed=2,
                faults=FaultConfig(smsg_drop_rate=0.05, smsg_stall_rate=0.05,
                                   rdma_error_rate=0.05))
            assert faulty.completed == 6
            assert faulty.digest == clean.digest
            assert faulty.time >= clean.time
            sanitize.assert_clean("rdma chaos alltoallv")
        finally:
            sanitize.clear_registry()
