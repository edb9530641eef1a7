"""One-stop construction of a machine + runtime + machine layer.

Every experiment and example starts here::

    from repro.lrts.factory import make_runtime

    conv, layer = make_runtime(n_pes=48, layer="ugni")
    conv2, layer2 = make_runtime(n_pes=48, layer="mpi")
    conv3, layer3 = make_runtime(n_pes=48, layer="rdma")

The same application code runs on any layer — the transparency the
paper's LRTS interface exists to provide ("the flexibility provided by the
LRTS interface allows the application to change its underlying LRTS
implementation transparently", §V).

Layer names resolve through :mod:`repro.lrts.registry`; importing the
shipped layer packages below is what populates it (each registers itself
at import time), so third-party layers only need to call
``register_layer`` before the factory runs.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.converse.scheduler import ConverseRuntime
from repro.errors import LrtsError
from repro.faults import FaultConfig, install_faults
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.lrts.interface import LrtsLayer
from repro.lrts.registry import available_layers, build_layer

# imported for their registration side effect
import repro.lrts.mpi_layer  # noqa: F401
import repro.lrts.rdma_layer  # noqa: F401
import repro.lrts.ugni_layer  # noqa: F401


def make_machine(
    n_pes: Optional[int] = None,
    n_nodes: Optional[int] = None,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    **machine_kw: Any,
) -> Machine:
    """Build a machine by PE count (whole nodes) or node count."""
    cfg = config or MachineConfig()
    if (n_pes is None) == (n_nodes is None):
        raise LrtsError("specify exactly one of n_pes / n_nodes")
    if n_nodes is None:
        n_nodes = -(-n_pes // cfg.cores_per_node)
    return Machine(n_nodes=n_nodes, config=cfg, seed=seed, **machine_kw)


def make_layer(
    machine: Machine,
    layer: str = "ugni",
    layer_config: Optional[Any] = None,
    **layer_kw: Any,
) -> LrtsLayer:
    """Build one registered layer; unknown names list what's available."""
    return build_layer(machine, layer, layer_config=layer_config, **layer_kw)


def make_runtime(
    n_pes: Optional[int] = None,
    n_nodes: Optional[int] = None,
    layer: str = "ugni",
    config: Optional[MachineConfig] = None,
    layer_config: Optional[Any] = None,
    seed: int = 0,
    tracer: Any = None,
    machine: Optional[Machine] = None,
    faults: Optional[FaultConfig] = None,
    fault_schedule: Iterable[Any] = (),
    **layer_kw: Any,
) -> tuple[ConverseRuntime, LrtsLayer]:
    """Machine + ConverseRuntime + machine layer, wired together.

    ``faults`` / ``fault_schedule`` install a :class:`FaultInjector`
    (bound to the runtime so node crashes halt PEs); both default to
    nothing, leaving ``machine.faults`` as ``None``.
    """
    if machine is None:
        machine = make_machine(n_pes=n_pes, n_nodes=n_nodes, config=config,
                               seed=seed)
    conv = ConverseRuntime(machine, tracer=tracer, n_pes=n_pes)
    lrts = make_layer(machine, layer=layer, layer_config=layer_config,
                      **layer_kw)
    conv.attach_lrts(lrts)
    fault_schedule = tuple(fault_schedule)
    if faults is not None or fault_schedule:
        install_faults(machine, config=faults, schedule=fault_schedule,
                       conv=conv)
    return conv, lrts
