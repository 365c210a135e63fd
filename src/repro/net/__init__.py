"""Network assembly: ring topologies and runnable simulations."""

from .mobility import RandomWaypointMobility
from .multihop import (
    ROUTERS,
    MultihopNetworkSimulation,
    MultihopSimulationResult,
)
from .network import NetworkSimulation, SimulationResult, close_stack
from .topology import (
    Topology,
    TopologyConfig,
    TopologyError,
    generate_connected_ring_topology,
    generate_ring_topology,
)
from .validate import connected_components, is_connected, validate_simulation

__all__ = [
    "ROUTERS",
    "MultihopNetworkSimulation",
    "MultihopSimulationResult",
    "NetworkSimulation",
    "RandomWaypointMobility",
    "SimulationResult",
    "close_stack",
    "connected_components",
    "is_connected",
    "validate_simulation",
    "Topology",
    "TopologyConfig",
    "TopologyError",
    "generate_connected_ring_topology",
    "generate_ring_topology",
]
