"""Multi-hop network assembly: topology + PHY + MAC + routing + flows.

The multi-hop counterpart of :class:`~repro.net.network
.NetworkSimulation`: the same radio/MAC stack per node, but instead of
single-hop saturated CBR every node gets a
:class:`~repro.route.ForwardingAgent` (relay plane) and, where a far
destination exists, a :class:`~repro.traffic.FlowTrafficSource`
originating end-to-end packets through it.  This is the paper's
implicit next question made runnable: does directional spatial reuse
survive when traffic must be relayed?

Determinism contract: identical to the single-hop stack — the build
iterates nodes in sorted order, every RNG draw comes from a named
:class:`~repro.dessim.rng.RngRegistry` stream, and routing itself
draws nothing, so the same seed produces bit-identical results with
telemetry on or off.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dessim.engine import make_simulator

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import PhaseProfiler
from ..dessim.rng import RngRegistry
from ..dessim.trace import Tracer
from ..dessim.units import SECOND, milliseconds
from ..mac.config import DSSS_MAC, MacParameters
from ..mac.dcf import DcfMac
from ..mac.neighbors import NeighborTable
from ..mac.policy import POLICIES
from ..mac.stats import MacStats
from ..metrics.flows import FlowMetrics, FlowRecord
from ..phy.channel import Channel
from ..phy.frames import PhyParameters
from ..phy.propagation import UnitDiskPropagation
from ..phy.radio import Radio
from ..route.forwarding import ForwardingAgent
from ..route.router import GreedyGeographicRouter, Router, StaticShortestPathRouter
from ..route.stats import RouteStats
from ..traffic.cbr import DEFAULT_PACKET_BYTES
from ..traffic.flows import FlowTrafficSource
from .topology import Topology

__all__ = [
    "ROUTERS",
    "DEFAULT_FLOW_INTERVAL_NS",
    "MultihopNetworkSimulation",
    "MultihopSimulationResult",
]

#: Router names accepted by :class:`MultihopNetworkSimulation`.
ROUTERS = ("greedy", "shortest-path")

#: Default flow inter-arrival: ~0.3 Mbps offered per flow (1460 B /
#: 40 ms), comfortably below one hop's saturation so relays can breathe.
DEFAULT_FLOW_INTERVAL_NS = milliseconds(40)


@dataclass(frozen=True)
class MultihopSimulationResult:
    """Everything measured in one multi-hop run."""

    scheme: str
    beamwidth: float
    router: str
    duration_ns: int
    flows: tuple[FlowRecord, ...]
    #: Pooled over every delivered packet of every flow (exact, from
    #: the integer delay/hop samples — not re-derived from flow means).
    mean_delay_s: float
    mean_hop_count: float
    route_stats: dict[int, RouteStats] = field(repr=False)
    stats: dict[int, MacStats] = field(repr=False)

    @property
    def total_goodput_bps(self) -> float:
        """Aggregate end-to-end goodput across all flows."""
        return sum(flow.goodput_bps for flow in self.flows)

    @property
    def packets_originated(self) -> int:
        return sum(flow.packets_sent for flow in self.flows)

    @property
    def packets_delivered_e2e(self) -> int:
        return sum(flow.packets_delivered for flow in self.flows)

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of originated packets (0.0 when none sent)."""
        sent = self.packets_originated
        if sent == 0:
            return 0.0
        return self.packets_delivered_e2e / sent

    def route_totals(self) -> RouteStats:
        """Network-wide forwarding counters (sum over nodes)."""
        totals = RouteStats()
        for node_id in sorted(self.route_stats):
            totals.merge(self.route_stats[node_id])
        return totals


class MultihopNetworkSimulation:
    """One runnable multi-hop network instance."""

    def __init__(
        self,
        topology: Topology,
        scheme: str,
        beamwidth: float,
        seed: int,
        *,
        router: str = "greedy",
        mac_params: MacParameters = DSSS_MAC,
        phy_params: PhyParameters | None = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        flow_interval_ns: int = DEFAULT_FLOW_INTERVAL_NS,
        min_flow_hops: int = 2,
        relay_queue: int = 50,
        ttl: int = 32,
        trace: bool = False,
        metrics: "MetricsRegistry | None" = None,
        link_cache: bool = True,
        scheduler: str | None = None,
    ) -> None:
        """Build the network.

        Args:
            seed: master seed for the run's :class:`RngRegistry`;
                required so replicate seeds are always plumbed
                explicitly from the experiment driver.
            router: ``"greedy"`` (geographic forwarding over the
                location oracle) or ``"shortest-path"`` (precomputed
                hop-count Dijkstra over the ground-truth graph).
            flow_interval_ns: per-flow packet inter-arrival time.
            min_flow_hops: flow destinations are drawn among nodes at
                least this many hops away (2 = never a neighbor, so
                every flow exercises the relay plane).
            relay_queue: per-node forwarding-queue bound.
            ttl: per-packet hop budget (forwarding-loop guard).
            metrics: optional telemetry registry; purely observational.
            link_cache: channel fast-path flag, as on
                :class:`~repro.net.network.NetworkSimulation`.
            scheduler: event-scheduler choice, as on
                :class:`~repro.net.network.NetworkSimulation`.
        """
        if scheme not in POLICIES:
            raise KeyError(
                f"unknown scheme {scheme!r}; expected one of {sorted(POLICIES)}"
            )
        if not 0.0 < beamwidth <= 2 * math.pi:
            raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth!r}")
        if router not in ROUTERS:
            raise KeyError(f"unknown router {router!r}; expected one of {ROUTERS}")
        if flow_interval_ns <= 0:
            raise ValueError(
                f"flow_interval_ns must be positive, got {flow_interval_ns}"
            )
        if min_flow_hops < 1:
            raise ValueError(f"min_flow_hops must be >= 1, got {min_flow_hops}")
        self.topology = topology
        self.scheme = scheme
        self.beamwidth = beamwidth
        self.router_name = router
        self.metrics = metrics
        self.sim = make_simulator(metrics=metrics, scheduler=scheduler)
        self.tracer = Tracer(enabled=trace, capacity=None)
        self.rng = RngRegistry(seed)
        phy = phy_params if phy_params is not None else PhyParameters()
        self.channel = Channel(
            self.sim,
            phy=phy,
            propagation=UnitDiskPropagation(range_m=topology.config.range_m),
            link_cache=link_cache,
        )
        policy = POLICIES[scheme]

        self.macs: dict[int, DcfMac] = {}
        self.neighbor_tables: dict[int, NeighborTable] = {}
        for node_id, position in sorted(topology.positions.items()):
            radio = Radio(self.sim, node_id, position, self.channel, self.tracer)
            table = NeighborTable(self.channel, node_id)
            self.neighbor_tables[node_id] = table
            self.macs[node_id] = DcfMac(
                self.sim,
                radio,
                mac_params,
                table,
                policy,
                beamwidth=beamwidth,
                rng=self.rng.stream(f"mac-{node_id}"),
                tracer=self.tracer,
            )

        self.router: Router
        if router == "greedy":
            self.router = GreedyGeographicRouter(self.neighbor_tables)
        else:
            self.router = StaticShortestPathRouter.from_topology(topology)

        # Relay plane: every node forwards, whether or not it originates.
        self.agents: dict[int, ForwardingAgent] = {}
        self.flow_metrics = FlowMetrics()
        for node_id, mac in sorted(self.macs.items()):
            agent = ForwardingAgent(
                self.sim, mac, self.router, max_queue=relay_queue, ttl=ttl
            )
            agent.delivery_listeners.append(self._on_flow_delivery)
            self.agents[node_id] = agent

        # Flow sources: one per node with at least one far destination.
        import networkx as nx

        graph = topology.connectivity_graph()
        self.sources: dict[int, FlowTrafficSource] = {}
        for node_id in sorted(self.agents):
            lengths = nx.single_source_shortest_path_length(graph, node_id)
            candidates = sorted(
                other for other, hops in lengths.items() if hops >= min_flow_hops
            )
            if not candidates:
                continue  # nothing far enough to relay to
            self.sources[node_id] = FlowTrafficSource(
                self.sim,
                self.agents[node_id],
                candidates,
                rng=self.rng.stream(f"flow-{node_id}"),
                interval_ns=flow_interval_ns,
                packet_bytes=packet_bytes,
            )
        self._sent_baseline: dict[int, int] = {}

    def _on_flow_delivery(self, payload, delay_ns: int, hops: int) -> None:
        self.flow_metrics.register(
            payload.flow_id, payload.src, payload.dst
        ).record_delivery(payload_bits=0, delay_ns=delay_ns, hops=hops)
        # Bits are credited here, not harvested later, so the counter
        # reflects exactly the packets recorded in this window.
        stats = self.flow_metrics[payload.flow_id]
        stats.bits_delivered += self._packet_bits

    def run(
        self,
        duration_ns: int,
        warmup_ns: int = 0,
        profiler: "PhaseProfiler | None" = None,
    ) -> MultihopSimulationResult:
        """Start all flows and run, returning post-warm-up metrics."""
        if duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {duration_ns}")
        if warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup_ns}")
        for node_id in sorted(self.sources):
            self.sources[node_id].start()
        if warmup_ns:
            with profiler.phase("warmup") if profiler else nullcontext():
                self.sim.run(until=self.sim.now + warmup_ns)
                for mac in self.macs.values():
                    mac.stats.reset()
                for agent in self.agents.values():
                    agent.stats.reset()
                self.flow_metrics.reset()
                self._sent_baseline = {
                    node_id: source.packets_generated
                    for node_id, source in self.sources.items()
                }
        with profiler.phase("event loop") if profiler else nullcontext():
            self.sim.run(until=self.sim.now + duration_ns)
        with profiler.phase("metrics reduction") if profiler else nullcontext():
            result = self._reduce(duration_ns)
            if self.metrics is not None:
                self._publish(self.metrics)
        return result

    def _reduce(self, duration_ns: int) -> MultihopSimulationResult:
        # Harvest per-flow sent counts from the sources (deliveries were
        # recorded live); every started flow appears even if it
        # delivered nothing.
        for node_id in sorted(self.sources):
            source = self.sources[node_id]
            assert source.flow_id is not None and source.dst is not None
            stats = self.flow_metrics.register(
                source.flow_id, node_id, source.dst
            )
            stats.packets_sent = source.packets_generated - self._sent_baseline.get(
                node_id, 0
            )
        delays: list[int] = []
        hops: list[int] = []
        for flow in self.flow_metrics.flows():
            delays.extend(flow.delays_ns)
            hops.extend(flow.hop_counts)
        return MultihopSimulationResult(
            scheme=self.scheme,
            beamwidth=self.beamwidth,
            router=self.router_name,
            duration_ns=duration_ns,
            flows=self.flow_metrics.records(duration_ns),
            mean_delay_s=(
                sum(delays) / len(delays) / SECOND if delays else 0.0
            ),
            mean_hop_count=(sum(hops) / len(hops) if hops else 0.0),
            route_stats={
                node_id: agent.stats for node_id, agent in self.agents.items()
            },
            stats={node_id: mac.stats for node_id, mac in self.macs.items()},
        )

    def _publish(self, metrics: "MetricsRegistry") -> None:
        metrics.gauge("net.nodes").set(len(self.macs))
        metrics.gauge("route.flows").set(len(self.sources))
        self.channel.stats.publish(metrics)
        for _node_id, mac in sorted(self.macs.items()):
            mac.stats.publish(metrics)
        for _node_id, agent in sorted(self.agents.items()):
            agent.stats.publish(metrics)

    @property
    def _packet_bits(self) -> int:
        # All flows share one packet size; any source knows it.
        source = next(iter(self.sources.values()))
        return source.packet_bytes * 8
