"""Cluster network construction.

Builds the fabric (shared-bus Ethernet by default, switched LAN for the
ablation) and one NIC per station.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from ..errors import ConfigurationError
from ..sim.core import Simulator
from ..sim.rng import RandomStreams
from .ethernet import EthernetBus
from .nic import NIC
from .switch import SwitchedLAN

__all__ = ["FABRIC_KINDS", "FabricConfig", "ClusterNetwork", "build_network"]

#: the buildable fabrics: the paper's shared-bus Ethernet, and a switched LAN
FABRIC_KINDS = ("ethernet", "switch")

Fabric = Union[EthernetBus, SwitchedLAN]


@dataclass(frozen=True)
class FabricConfig:
    """Which fabric to build and its parameters."""

    kind: str = "ethernet"  # one of FABRIC_KINDS
    rate_bps: float = 10e6
    #: switch only: forward after the header arrives (cut-through) instead
    #: of buffering the whole frame (store-and-forward)
    cut_through: bool = True
    #: switch only: fixed forwarding latency of the switching element
    forward_latency: float = 15e-6

    def __post_init__(self) -> None:
        if self.kind not in FABRIC_KINDS:
            raise ConfigurationError(f"unknown fabric kind {self.kind!r}")
        if self.rate_bps <= 0:
            raise ConfigurationError("fabric rate must be positive")
        if self.forward_latency < 0:
            raise ConfigurationError("forward latency must be non-negative")


@dataclass
class ClusterNetwork:
    """The fabric plus the per-station NICs."""

    fabric: Fabric
    nics: Dict[int, NIC] = field(default_factory=dict)

    def nic(self, station_id: int) -> NIC:
        try:
            return self.nics[station_id]
        except KeyError:
            raise ConfigurationError(f"no NIC for station {station_id}") from None

    @property
    def station_ids(self) -> List[int]:
        return sorted(self.nics)


def build_network(
    sim: Simulator,
    rng: RandomStreams,
    n_stations: int,
    config: FabricConfig = FabricConfig(),
) -> ClusterNetwork:
    """Create the fabric and attach ``n_stations`` NICs (ids 0..n-1)."""
    if n_stations < 1:
        raise ConfigurationError("need at least one station")
    fabric: Fabric
    if config.kind == "ethernet":
        fabric = EthernetBus(sim, rng.spawn("ether"), rate_bps=config.rate_bps)
    else:
        fabric = SwitchedLAN(
            sim,
            rate_bps=config.rate_bps,
            forward_latency=config.forward_latency,
            cut_through=config.cut_through,
        )
    net = ClusterNetwork(fabric=fabric)
    for sid in range(n_stations):
        net.nics[sid] = NIC(sim, fabric, sid)
    return net
