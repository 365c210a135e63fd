"""Multi-hop end-to-end study: throughput/delay vs beamwidth, relayed.

The paper measures single-hop saturation throughput; this driver asks
the follow-on question with the same grid shape: when traffic must be
*relayed* across the ring topology (via :mod:`repro.route`), how do the
directional schemes compare end to end?  Each grid cell runs the
``(N, scheme, beamwidth)`` configuration with one far-destination flow
per node and reports per-flow goodput, origination-to-delivery delay,
and hop counts.

The campaign machinery is shared with the single-hop study: cells are
:class:`~repro.experiments.campaign.CellSpec` work units (so the
runner's parallelism, persistence, and resume apply unchanged), run by
this module's worker, which the study table registers for
:class:`MultihopStudyConfig`.

Determinism contract: every replicate is a pure function of
``(config, n, replicate)`` — serial and parallel campaigns, and
telemetry on or off, produce identical artifacts.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..dessim.rng import RngRegistry
from ..dessim.units import milliseconds
from ..metrics.flows import FlowRecord
from ..metrics.summary import ReplicateSummary, summarize
from ..net.multihop import (
    ROUTERS,
    MultihopNetworkSimulation,
    MultihopSimulationResult,
)
from ..net.topology import Topology, TopologyConfig, generate_connected_ring_topology
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from .campaign import CellResult, CellSpec, cached_topology, replicate_seed
from .config import SimStudyConfig
from .tables import format_grid

__all__ = [
    "MultihopStudyConfig",
    "MultihopReplicateMetrics",
    "MultihopCell",
    "multihop_replicate_topology",
    "run_multihop_cell_spec",
    "summarize_multihop",
    "format_multihop_table",
]


@dataclass(frozen=True)
class MultihopStudyConfig(SimStudyConfig):
    """The multi-hop sweep: the single-hop grid plus routing knobs.

    Inherits the grid axes (``n_values`` × ``schemes`` ×
    ``beamwidths_deg``), replicate count, duration, and seed from
    :class:`~repro.experiments.config.SimStudyConfig`, so the campaign
    store's config fingerprint covers every field of both layers.
    """

    #: Next-hop strategy: see :data:`repro.net.multihop.ROUTERS`.
    router: str = "greedy"
    #: Per-flow packet inter-arrival (Table-1 1460 B payloads).
    flow_interval_ns: int = milliseconds(40)
    #: Flow destinations are >= this many hops from the origin.
    min_flow_hops: int = 2
    #: Per-node relay-queue bound.
    relay_queue: int = 50
    #: Per-packet hop budget.
    ttl: int = 32
    #: Ring count of the generated topologies.
    rings: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.router not in ROUTERS:
            raise ValueError(
                f"unknown router {self.router!r}; expected one of {ROUTERS}"
            )
        if self.flow_interval_ns <= 0:
            raise ValueError(
                f"flow_interval_ns must be positive, got {self.flow_interval_ns}"
            )
        if self.min_flow_hops < 1:
            raise ValueError(
                f"min_flow_hops must be >= 1, got {self.min_flow_hops}"
            )
        if self.relay_queue < 1:
            raise ValueError(f"relay_queue must be >= 1, got {self.relay_queue}")
        if self.ttl < 1:
            raise ValueError(f"ttl must be >= 1, got {self.ttl}")
        if self.rings < 2:
            raise ValueError(
                f"multi-hop study needs rings >= 2, got {self.rings}"
            )


@dataclass(frozen=True)
class MultihopReplicateMetrics:
    """End-to-end summary of one multi-hop replicate (JSON-exact).

    The multi-hop analogue of
    :class:`~repro.experiments.campaign.ReplicateMetrics`; campaign
    cell artifacts carry these under ``"kind": "multihop"``.
    """

    kind: ClassVar[str] = "multihop"

    replicate: int
    seed: int
    duration_ns: int
    goodput_bps: float
    mean_delay_s: float
    mean_hop_count: float
    delivery_ratio: float
    packets_originated: int
    packets_delivered: int
    forwarded: int
    dropped_queue_full: int
    dropped_dead_end: int
    dropped_ttl: int
    dropped_mac: int
    flows: tuple[FlowRecord, ...]

    @classmethod
    def from_result(
        cls, replicate: int, seed: int, result: MultihopSimulationResult
    ) -> "MultihopReplicateMetrics":
        totals = result.route_totals()
        return cls(
            replicate=replicate,
            seed=seed,
            duration_ns=result.duration_ns,
            goodput_bps=result.total_goodput_bps,
            mean_delay_s=result.mean_delay_s,
            mean_hop_count=result.mean_hop_count,
            delivery_ratio=result.delivery_ratio,
            packets_originated=result.packets_originated,
            packets_delivered=result.packets_delivered_e2e,
            forwarded=totals.forwarded,
            dropped_queue_full=totals.dropped_queue_full,
            dropped_dead_end=totals.dropped_dead_end,
            dropped_ttl=totals.dropped_ttl,
            dropped_mac=totals.dropped_mac,
            flows=result.flows,
        )

    @classmethod
    def from_record(cls, record: dict) -> "MultihopReplicateMetrics":
        """Rebuild from the ``dataclasses.asdict`` JSON form."""
        data = dict(record)
        data["flows"] = tuple(FlowRecord(**flow) for flow in data["flows"])
        return cls(**data)


# ----------------------------------------------------------------------
# Worker functions — the campaign plugs, pure in (spec).
# ----------------------------------------------------------------------


def multihop_replicate_topology(
    base_seed: int, n: int, replicate: int, rings: int = 3
) -> Topology:
    """The *connected-preferred* topology for ``(base_seed, N, replicate)``.

    Same registry-named stream derivation as
    :func:`~repro.experiments.campaign.replicate_topology` — per-
    ``(N, replicate)``, scheme-blind, so common random numbers across
    schemes hold for the multi-hop study too — but routed through
    :func:`~repro.net.topology.generate_connected_ring_topology`, which
    resamples toward a single component and warns (rather than fails)
    when the geometry won't give one.
    """
    registry = RngRegistry(base_seed).spawn(f"topology-n{n}-r{replicate}")
    return generate_connected_ring_topology(
        TopologyConfig(n=n, rings=rings), registry.stream("placement")
    )


def run_multihop_cell_spec(
    spec: CellSpec,
    metrics: MetricsRegistry | None = None,
    profiler: PhaseProfiler | None = None,
) -> CellResult:
    """Run all replicates of one multi-hop grid cell.

    The multi-hop counterpart of
    :func:`~repro.experiments.campaign.run_cell_spec`, with the same
    purity contract: a pure function of ``spec`` regardless of process
    or order, with ``metrics``/``profiler`` strictly observational.
    ``spec.config`` must be a :class:`MultihopStudyConfig`.
    """
    cfg = spec.config
    if not isinstance(cfg, MultihopStudyConfig):
        raise TypeError(
            f"multi-hop cells need a MultihopStudyConfig, got {type(cfg).__name__}"
        )
    results = []
    for replicate in range(cfg.topologies):
        with profiler.phase("topology gen") if profiler else nullcontext():
            topo = cached_topology(
                multihop_replicate_topology, cfg.base_seed, spec.n, replicate, cfg.rings
            )
        seed = replicate_seed(cfg.base_seed, spec.n, replicate)
        with profiler.phase("build") if profiler else nullcontext():
            simulation = MultihopNetworkSimulation(
                topo,
                spec.scheme,
                math.radians(spec.beamwidth_deg),
                seed=seed,
                router=cfg.router,
                mac_params=cfg.mac_params,
                phy_params=cfg.phy_params,
                flow_interval_ns=cfg.flow_interval_ns,
                min_flow_hops=cfg.min_flow_hops,
                relay_queue=cfg.relay_queue,
                ttl=cfg.ttl,
                metrics=metrics,
            )
        result = simulation.run(cfg.sim_time_ns, profiler=profiler)
        results.append(MultihopReplicateMetrics.from_result(replicate, seed, result))
    return CellResult(
        n=spec.n,
        scheme=spec.scheme,
        beamwidth_deg=spec.beamwidth_deg,
        results=tuple(results),
    )


# ----------------------------------------------------------------------
# The summary and its presentation.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MultihopCell:
    """Cross-replicate summary for one (N, scheme, beamwidth) cell."""

    n: int
    scheme: str
    beamwidth_deg: float
    goodput_bps: ReplicateSummary
    mean_delay_s: ReplicateSummary
    mean_hop_count: float
    delivery_ratio: float


def summarize_multihop(cells: Sequence[CellResult]) -> list[MultihopCell]:
    """Summarize raw multi-hop campaign cells for presentation."""
    summary = []
    for cell in cells:
        hops = cell.metric("mean_hop_count")
        ratios = cell.metric("delivery_ratio")
        summary.append(
            MultihopCell(
                n=cell.n,
                scheme=cell.scheme,
                beamwidth_deg=cell.beamwidth_deg,
                goodput_bps=summarize(cell.metric("goodput_bps")),
                mean_delay_s=summarize(cell.metric("mean_delay_s")),
                mean_hop_count=sum(hops) / len(hops),
                delivery_ratio=sum(ratios) / len(ratios),
            )
        )
    return summary


def format_multihop_table(cells: Sequence[MultihopCell]) -> str:
    """Aligned text table grouped by N, one row per beamwidth."""
    return format_grid(
        cells,
        "end-to-end goodput Mbps / mean delay ms, all flows",
        22,
        lambda c: (
            f"{c.goodput_bps.mean / 1e6:7.3f} / {c.mean_delay_s.mean * 1e3:8.2f}ms"
        ),
    )
