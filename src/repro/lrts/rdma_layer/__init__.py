"""The RDMA machine layer — a Slingshot/InfiniBand-class third fabric.

Send-path dispatch (see :mod:`repro.lrts.rdma_layer.layer`):

* same node → pxshm (shared with the uGNI layer), or the fabric loopback;
* ``total <= rdma_inline_max`` → inline RC send (payload in the WQE);
* ``total <= rdma_eager_max`` → eager RC send through registered staging
  pools and pre-posted receive buffers;
* larger → rendezvous over the one-sided memory channel (RTS, then an
  RDMA READ pull), bounce windows recycled by the pin-down cache;
* persistent channels → pre-negotiated RMA windows + WRITE/notify
  (:mod:`repro.lrts.rdma_layer.collectives`).

Typically paired with ``MachineConfig(topology="dragonfly")``, though the
fabric runs on the torus too — topology and transport are orthogonal.
"""

from typing import Optional

from repro.errors import LrtsError
from repro.lrts.rdma_layer.config import RdmaLayerConfig
from repro.lrts.rdma_layer.endpoints import PinDownCache, RcQueuePair, RdmaFabric
from repro.lrts.rdma_layer.layer import RdmaMachineLayer
from repro.lrts.registry import register_layer


def _build(machine, layer_config: Optional[RdmaLayerConfig] = None,
           **layer_kw) -> RdmaMachineLayer:
    if layer_config is not None and not isinstance(layer_config,
                                                   RdmaLayerConfig):
        raise LrtsError(
            f"the rdma layer takes an RdmaLayerConfig, "
            f"got {type(layer_config).__name__}")
    return RdmaMachineLayer(machine, layer_config=layer_config, **layer_kw)


register_layer("rdma", _build)

__all__ = ["RdmaMachineLayer", "RdmaLayerConfig", "RdmaFabric",
           "RcQueuePair", "PinDownCache"]
