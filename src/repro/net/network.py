"""Network assembly: topology + PHY + MAC + traffic, ready to run.

This is the top of the simulation stack: given a
:class:`~repro.net.topology.Topology` and a scheme name, it wires a
:class:`~repro.dessim.Simulator`, one :class:`~repro.phy.Radio` and
:class:`~repro.mac.DcfMac` per node, and a saturated CBR source per
node that has at least one neighbor — exactly the paper's Section-4
setup — and produces a :class:`SimulationResult` with the measured
metrics of the innermost ``N`` nodes.
"""

from __future__ import annotations

import math
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..dessim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from ..obs.metrics import MetricsRegistry
    from ..obs.profile import PhaseProfiler
from ..dessim.rng import RngRegistry
from ..dessim.trace import Tracer
from ..mac.config import DSSS_MAC, MacParameters
from ..mac.dcf import DcfMac
from ..mac.neighbors import NeighborTable
from ..mac.policy import POLICIES
from ..mac.stats import MacStats
from ..metrics.fairness import jain_index
from ..metrics.measures import (
    aggregate_collision_ratio,
    aggregate_throughput_bps,
    mean_delay_seconds,
    per_node_throughput_bps,
)
from ..phy.channel import Channel
from ..phy.frames import PhyParameters
from ..phy.propagation import UnitDiskPropagation
from ..phy.radio import Radio
from ..phy.reception import PhyConfig
from ..traffic.cbr import DEFAULT_PACKET_BYTES, CbrSource, SaturatedCbrSource
from .topology import Topology

__all__ = ["NetworkSimulation", "SimulationResult", "close_stack"]


def close_stack(sim: Simulator, channel: Channel, macs: Iterable[DcfMac]) -> None:
    """Cut the reference cycles of one simulated stack (idempotent).

    The calendar, the MACs' timers and listener lists, and the
    radio/channel and radio/MAC back references tie a built stack into
    cycles that only the cyclic garbage collector would free.  After
    this, every part is freed by reference counting once the last
    outside reference goes.  Results already taken stay valid: MAC
    stats, channel stats and tracers are left untouched.  The network
    classes run this when the network object is collected; a stack
    wired by hand calls it when done.
    """
    sim.close()
    for mac in macs:
        mac.close()
    channel.close()


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one simulation run."""

    scheme: str
    beamwidth: float
    duration_ns: int
    inner_ids: tuple[int, ...]
    stats: dict[int, MacStats] = field(repr=False)
    #: Frames delivered despite overlapping interference (SINR model;
    #: always 0 under the unit-disk reception model).
    frames_captured: int = 0
    #: Receptions dropped mid-air by a later interferer (SINR model).
    frames_sinr_dropped: int = 0

    @property
    def inner_throughput_bps(self) -> float:
        """Fig. 6 metric: aggregate goodput of the innermost N nodes."""
        return aggregate_throughput_bps(self.stats, self.duration_ns, self.inner_ids)

    @property
    def inner_mean_delay_s(self) -> float:
        """Fig. 7 metric: mean MAC service delay of inner-node packets."""
        return mean_delay_seconds(self.stats, self.inner_ids)

    @property
    def inner_collision_ratio(self) -> float:
        """Section-4 collision ratio pooled over the inner nodes."""
        return aggregate_collision_ratio(self.stats, self.inner_ids)

    @property
    def inner_fairness(self) -> float:
        """Jain index of the inner nodes' individual throughputs."""
        return jain_index(
            per_node_throughput_bps(self.stats, self.duration_ns, self.inner_ids)
        )

    @property
    def inner_packets_delivered(self) -> int:
        return sum(self.stats[n].packets_delivered for n in self.inner_ids)


class NetworkSimulation:
    """One runnable network instance.

    Its parts (``sim``, ``channel``, ``macs`` and what hangs off them)
    are torn down by :func:`~repro.net.network.close_stack` when this
    object is collected, so hold the network while using them.  What
    :meth:`run` returned stays valid.
    """

    def __init__(
        self,
        topology: Topology,
        scheme: str,
        beamwidth: float,
        seed: int,
        mac_params: MacParameters = DSSS_MAC,
        phy_params: PhyParameters | None = None,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        cbr_interval_ns: int | None = None,
        trace: bool = False,
        metrics: "MetricsRegistry | None" = None,
        phy_config: PhyConfig | None = None,
    ) -> None:
        """Build the network.

        Args:
            seed: master seed for the run's :class:`RngRegistry`;
                required (no default) so replicate seeds are always
                plumbed explicitly from the experiment driver.
            phy_config: reception-model selection
                (:class:`~repro.phy.reception.PhyConfig`); ``None`` or
                the default config give the paper's unit-disk model,
                bit-identical to builds that predate the knob.  The
                SINR model draws its shadowing streams from this run's
                registry, so link budgets are seed-deterministic.
            cbr_interval_ns: ``None`` (default) gives the paper's
                always-backlogged saturated sources; a positive value
                gives fixed-interval CBR sources instead, for
                below-saturation load studies.
            metrics: optional telemetry registry
                (:class:`repro.obs.MetricsRegistry`); the kernel,
                channel, and MAC layers harvest their counters into it.
                Purely observational — attaching one cannot change
                simulation results.
        """
        if scheme not in POLICIES:
            raise KeyError(
                f"unknown scheme {scheme!r}; expected one of {sorted(POLICIES)}"
            )
        if not 0.0 < beamwidth <= 2 * math.pi:
            raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth!r}")
        if cbr_interval_ns is not None and cbr_interval_ns <= 0:
            raise ValueError(
                f"cbr_interval_ns must be positive or None, got {cbr_interval_ns}"
            )
        self.topology = topology
        self.scheme = scheme
        self.beamwidth = beamwidth
        self.metrics = metrics
        self.sim = Simulator(metrics)
        self.tracer = Tracer(enabled=trace, capacity=None)
        self.rng = RngRegistry(seed)
        phy = phy_params if phy_params is not None else PhyParameters()
        self.phy_config = phy_config if phy_config is not None else PhyConfig()
        reception = self.phy_config.build(
            UnitDiskPropagation(range_m=topology.config.range_m),
            phy,
            self.rng,
        )
        self.channel = Channel(
            self.sim,
            phy=phy,
            reception=reception,
        )
        policy = POLICIES[scheme]

        self.macs: dict[int, DcfMac] = {}
        self.sources: dict[int, SaturatedCbrSource | CbrSource] = {}
        for node_id, position in sorted(topology.positions.items()):
            radio = Radio(self.sim, node_id, position, self.channel, self.tracer)
            self.macs[node_id] = DcfMac(
                self.sim,
                radio,
                mac_params,
                NeighborTable(self.channel, node_id),
                policy,
                beamwidth=beamwidth,
                rng=self.rng.stream(f"mac-{node_id}"),
                tracer=self.tracer,
            )
        # Torn down when this object is collected, not before: the
        # finalizer holds the parts, never the network itself.
        weakref.finalize(
            self, close_stack, self.sim, self.channel, self.macs.values()
        )
        # Traffic after all radios exist (neighbor sets are complete).
        for node_id, mac in self.macs.items():
            neighbors = self.channel.neighbors_of(node_id)
            if not neighbors:
                continue  # an isolated outer node generates nothing
            if cbr_interval_ns is None:
                self.sources[node_id] = SaturatedCbrSource(
                    self.sim,
                    mac,
                    destinations=sorted(neighbors),
                    rng=self.rng.stream(f"traffic-{node_id}"),
                    packet_bytes=packet_bytes,
                )
            else:
                self.sources[node_id] = CbrSource(
                    self.sim,
                    mac,
                    destinations=sorted(neighbors),
                    rng=self.rng.stream(f"traffic-{node_id}"),
                    interval_ns=cbr_interval_ns,
                    packet_bytes=packet_bytes,
                )

    def run(
        self,
        duration_ns: int,
        warmup_ns: int = 0,
        profiler: "PhaseProfiler | None" = None,
    ) -> SimulationResult:
        """Start all sources and run, returning post-warm-up metrics.

        Args:
            duration_ns: measured simulated duration.
            warmup_ns: optional transient to simulate *before* the
                measurement window; all MAC counters are zeroed when it
                ends, so cold-start effects (everyone contending at
                t = 0 with empty NAVs and minimal windows) don't bias
                short runs.
            profiler: optional :class:`repro.obs.PhaseProfiler`; the
                "warmup", "event loop", and "metrics reduction" phases
                accumulate host time into it.
        """
        if duration_ns <= 0:
            raise ValueError(f"duration must be positive, got {duration_ns}")
        if warmup_ns < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup_ns}")
        for source in self.sources.values():
            source.start()
        if warmup_ns:
            with profiler.phase("warmup") if profiler else nullcontext():
                self.sim.run(until=self.sim.now + warmup_ns)
                for mac in self.macs.values():
                    mac.stats.reset()
                for radio in self.channel.radios.values():
                    radio.receiver.captures = 0
                    radio.receiver.sinr_drops = 0
        with profiler.phase("event loop") if profiler else nullcontext():
            self.sim.run(until=self.sim.now + duration_ns)
        with profiler.phase("metrics reduction") if profiler else nullcontext():
            radios = self.channel.radios.values()
            result = SimulationResult(
                scheme=self.scheme,
                beamwidth=self.beamwidth,
                duration_ns=duration_ns,
                inner_ids=tuple(self.topology.inner_ids),
                stats={nid: mac.stats for nid, mac in self.macs.items()},
                frames_captured=sum(r.receiver.captures for r in radios),
                frames_sinr_dropped=sum(r.receiver.sinr_drops for r in radios),
            )
            if self.metrics is not None:
                self.metrics.gauge("net.nodes").set(len(self.macs))
                self.channel.stats.publish(self.metrics)
                for _node_id, mac in sorted(self.macs.items()):
                    mac.stats.publish(self.metrics)
        return result
