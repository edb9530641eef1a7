"""Simulated Cray XE6 hardware: nodes, Gemini NICs, and a 3D-torus network.

The hardware model is deliberately *structural*: it carries the components
the paper's analysis depends on —

* a 3D torus of :class:`~repro.hardware.node.Node` objects, two nodes per
  Gemini ASIC, each with 24 cores (Hopper's dual 12-core Magny-Cours);
* per-node :class:`~repro.hardware.nic.GeminiNIC` with an **FMA** unit
  (CPU-driven, lowest latency, occupies the issuing core) and a **BTE**
  engine (offloaded DMA, serialized per NIC, frees the CPU);
* :class:`~repro.hardware.link.Link` objects with bandwidth serialization so
  contention emerges rather than being scripted;
* a node memory model with malloc/registration *cost* accounting — the
  costs the paper's memory-pool optimization exists to remove.

All calibration constants live in
:class:`~repro.hardware.config.MachineConfig`; its defaults are fitted to
the latencies the paper itself reports for Hopper.
"""

from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.hardware.topology import Torus3D
from repro.hardware.node import Node
from repro.hardware.nic import GeminiNIC, TransferKind

__all__ = [
    "MachineConfig",
    "Machine",
    "Torus3D",
    "Node",
    "GeminiNIC",
    "TransferKind",
]
