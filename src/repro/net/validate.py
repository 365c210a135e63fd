"""Topology and post-run invariant validation for network simulations.

A downstream user extending the MAC or PHY wants a cheap way to know
they broke something.  :func:`validate_simulation` re-checks the
cross-layer invariants the test suite relies on and returns a list of
human-readable violations (empty when everything holds).

:func:`connected_components` / :func:`is_connected` answer the
question multi-hop experiments must ask *before* running: can every
node reach every other at all?  A partitioned topology silently zeroes
end-to-end goodput for the stranded flows, which reads as a routing
failure when it is really a placement artifact — so the multi-hop
topology generator (:func:`~repro.net.topology
.generate_connected_ring_topology`) resamples or warns on partitions.
"""

from __future__ import annotations

from .network import NetworkSimulation, SimulationResult
from .topology import Topology

__all__ = ["connected_components", "is_connected", "validate_simulation"]


def connected_components(topology: Topology) -> list[list[int]]:
    """Connected components of the unit-disk graph, deterministically.

    Components are each sorted by node id and ordered by their smallest
    member, so the same topology always yields the same list — safe to
    hash into artifacts.
    """
    import networkx as nx

    graph = topology.connectivity_graph()
    components = [sorted(component) for component in nx.connected_components(graph)]
    components.sort(key=lambda component: component[0])
    return components


def is_connected(topology: Topology) -> bool:
    """Whether every node can reach every other over unit-disk links."""
    return len(connected_components(topology)) <= 1


def validate_simulation(
    simulation: NetworkSimulation, result: SimulationResult
) -> list[str]:
    """Check conservation and counter identities after a run.

    Args:
        simulation: the network that produced ``result``.
        result: the returned metrics bundle.

    Returns:
        Violation descriptions; an empty list means all invariants hold.
    """
    violations: list[str] = []

    total_delivered = 0
    total_received = 0
    total_acks = 0
    total_data_sent = 0

    for node_id, stats in result.stats.items():
        prefix = f"node {node_id}:"
        if stats.data_sent > stats.rts_sent:
            violations.append(
                f"{prefix} data_sent ({stats.data_sent}) exceeds "
                f"rts_sent ({stats.rts_sent})"
            )
        if stats.packets_delivered > stats.data_sent:
            violations.append(
                f"{prefix} deliveries ({stats.packets_delivered}) exceed "
                f"data transmissions ({stats.data_sent})"
            )
        if stats.cts_timeouts + stats.ack_timeouts > stats.rts_sent:
            violations.append(
                f"{prefix} timeouts exceed RTS attempts"
            )
        if len(stats.delays_ns) != stats.packets_delivered:
            violations.append(
                f"{prefix} delay samples ({len(stats.delays_ns)}) != "
                f"deliveries ({stats.packets_delivered})"
            )
        if any(delay <= 0 for delay in stats.delays_ns):
            violations.append(f"{prefix} non-positive delay sample")
        if not 0.0 <= stats.collision_ratio <= 1.0:
            violations.append(
                f"{prefix} collision ratio {stats.collision_ratio} out of range"
            )
        total_delivered += stats.packets_delivered
        total_received += stats.data_received
        total_acks += stats.ack_sent
        total_data_sent += stats.data_sent

    if total_delivered > total_received:
        violations.append(
            f"network: deliveries ({total_delivered}) exceed receptions "
            f"({total_received})"
        )
    if total_received > total_data_sent:
        violations.append(
            f"network: receptions ({total_received}) exceed data "
            f"transmissions ({total_data_sent})"
        )
    # Every received DATA is ACKed — except responses still sitting in
    # their SIFS window when the run's end cut them off.
    in_flight = sum(
        1
        for mac in simulation.macs.values()
        if mac._response_timer.pending or mac.radio.transmitting
    )
    if not 0 <= total_received - total_acks <= in_flight + len(simulation.macs):
        violations.append(
            f"network: ACKs sent ({total_acks}) inconsistent with DATA "
            f"received ({total_received})"
        )

    channel = simulation.channel.stats
    if sum(channel.frames_by_type.values()) != channel.transmissions:
        violations.append("channel: per-type frame counts do not sum up")
    if sum(channel.airtime_by_type_ns.values()) != channel.airtime_ns:
        violations.append("channel: per-type air times do not sum up")

    # Saturated sources must still be backlogged.
    for node_id, source in simulation.sources.items():
        mac = simulation.macs[node_id]
        if hasattr(source, "packets_generated") and not hasattr(
            source, "interval_ns"
        ):
            if mac.queue_length < 1:
                violations.append(
                    f"node {node_id}: saturated source left the queue empty"
                )
    return violations
