"""Slot-model Monte-Carlo study: the paper grid on the slotsim engine.

Runs the ``(N, scheme, beamwidth)`` grid of the analytical model's
*simulated world* (:mod:`repro.slotsim`) as a campaign: each cell is
``topologies`` independent torus draws, each replicate a pure function
of ``(config, n, replicate)`` exactly like the 802.11 studies, with
cell artifacts persisted under ``"kind": "slotsim"``.  Each replicate
runs the vectorized :class:`~repro.slotsim.batch.BatchSlotModelEngine`
with one traffic replicate on its own torus draw.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar, Sequence

from ..core.params import PAPER_PARAMETERS
from ..metrics.summary import ReplicateSummary, summarize
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..slotsim import BatchSlotModelEngine, SlotModelConfig, SlotModelResults
from .campaign import CellResult, CellSpec, replicate_seed
from .config import SimStudyConfig
from .tables import format_grid

__all__ = [
    "SlotStudyConfig",
    "SlotReplicateMetrics",
    "SlotCell",
    "run_slot_cell_spec",
    "summarize_slotsim",
    "format_slotsim_table",
]

@dataclass(frozen=True)
class SlotStudyConfig(SimStudyConfig):
    """The slot-model sweep: the grid axes plus slotsim knobs.

    Inherits ``n_values`` × ``schemes`` × ``beamwidths_deg``,
    ``topologies`` and ``base_seed`` from
    :class:`~repro.experiments.config.SimStudyConfig` (the 802.11-only
    fields ``sim_time_ns``/``retry_limit``/``capture_threshold`` ride
    along unused), so the campaign fingerprint covers every field.
    """

    #: Per-slot handshake-initiation probability of a waiting node.
    p: float = 0.05
    #: Slots simulated per replicate.
    slots: int = 5_000
    #: Torus side length as a multiple of the range ``R``.
    torus_factor: float = 6.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p!r}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if self.torus_factor < 3.0:
            raise ValueError(
                f"torus_factor must be >= 3, got {self.torus_factor!r}"
            )


@dataclass(frozen=True)
class SlotReplicateMetrics:
    """Outcome ledger of one slot-model replicate (JSON-exact).

    Counts are integers (the engine keeps the payload ledger
    integer-exact precisely so these survive JSON round-trips with
    ``==`` semantics); the derived ratios are stored too so summaries
    never need the engine.
    """

    kind: ClassVar[str] = "slotsim"

    replicate: int
    seed: int
    slots: int
    node_count: int
    mean_degree: float
    initiations: int
    successes: int
    failures: int
    payload_slots: int
    success_ratio: float
    throughput_per_node: float
    mean_fail_duration: float
    fail_durations: dict[int, int]

    @classmethod
    def from_results(
        cls, replicate: int, seed: int, results: SlotModelResults
    ) -> "SlotReplicateMetrics":
        return cls(
            replicate=replicate,
            seed=seed,
            slots=results.slots,
            node_count=results.node_count,
            mean_degree=results.mean_degree,
            initiations=results.initiations,
            successes=results.successes,
            failures=results.failures,
            payload_slots=results.payload_slots,
            success_ratio=results.success_ratio,
            throughput_per_node=results.throughput_per_node,
            mean_fail_duration=results.mean_fail_duration,
            fail_durations=dict(sorted(results.fail_durations.items())),
        )

    @classmethod
    def from_record(cls, record: dict) -> "SlotReplicateMetrics":
        """Rebuild from the ``dataclasses.asdict`` JSON form (JSON
        stringifies the integer duration keys)."""
        data = dict(record)
        data["fail_durations"] = {
            int(duration): count
            for duration, count in data["fail_durations"].items()
        }
        return cls(**data)


# ----------------------------------------------------------------------
# Worker functions — the campaign plugs, pure in (spec).
# ----------------------------------------------------------------------


def run_slot_cell_spec(
    spec: CellSpec,
    metrics: MetricsRegistry | None = None,
    profiler: PhaseProfiler | None = None,
) -> CellResult:
    """Run all replicates of one slot-model grid cell.

    Same purity contract as
    :func:`~repro.experiments.campaign.run_cell_spec`: a pure function
    of ``spec`` regardless of process or order, with ``metrics`` and
    ``profiler`` strictly observational.  The slot model draws its own
    torus placement from the replicate seed (``config.seed`` roots both
    placement and traffic), so it needs no topology memo.
    ``spec.config`` must be a :class:`SlotStudyConfig`.
    """
    cfg = spec.config
    if not isinstance(cfg, SlotStudyConfig):
        raise TypeError(
            f"slot-model cells need a SlotStudyConfig, got {type(cfg).__name__}"
        )
    params = PAPER_PARAMETERS.with_neighbors(float(spec.n)).with_beamwidth(
        math.radians(spec.beamwidth_deg)
    )
    results = []
    for replicate in range(cfg.topologies):
        seed = replicate_seed(cfg.base_seed, spec.n, replicate)
        model = SlotModelConfig(
            params=params,
            scheme=spec.scheme,
            p=cfg.p,
            torus_factor=cfg.torus_factor,
            seed=seed,
        )
        with profiler.phase("build") if profiler else nullcontext():
            engine = BatchSlotModelEngine(model, metrics=metrics)
        with profiler.phase("event loop") if profiler else nullcontext():
            (outcome,) = engine.run(cfg.slots)
        results.append(SlotReplicateMetrics.from_results(replicate, seed, outcome))
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
class SlotCell:
    """Cross-replicate summary for one (N, scheme, beamwidth) cell."""

    n: int
    scheme: str
    beamwidth_deg: float
    success_ratio: ReplicateSummary
    throughput_per_node: ReplicateSummary
    mean_fail_duration: ReplicateSummary


def summarize_slotsim(cells: Sequence[CellResult]) -> list[SlotCell]:
    """Summarize raw slot-model campaign cells for presentation."""
    summary = []
    for cell in cells:
        summary.append(
            SlotCell(
                n=cell.n,
                scheme=cell.scheme,
                beamwidth_deg=cell.beamwidth_deg,
                success_ratio=summarize(cell.metric("success_ratio")),
                throughput_per_node=summarize(
                    cell.metric("throughput_per_node")
                ),
                mean_fail_duration=summarize(
                    cell.metric("mean_fail_duration")
                ),
            )
        )
    return summary


def format_slotsim_table(cells: Sequence[SlotCell]) -> str:
    """Aligned text table grouped by N, one row per beamwidth."""
    return format_grid(
        cells,
        "throughput per node per slot / success ratio, engine: batch",
        18,
        lambda c: f"{c.throughput_per_node.mean:8.4f} / {c.success_ratio.mean:7.4f}",
    )
