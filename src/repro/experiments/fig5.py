"""Fig. 5 — analytical maximum throughput versus antenna beamwidth.

Regenerates the paper's Figure 5: for beamwidths 15..180 degrees (15
degree steps) and the Section-3 packet lengths (RTS = CTS = ACK = 5
slots, data = 100 slots), the maximum achievable throughput of the
three collision-avoidance schemes, maximised over the per-slot
transmission probability ``p``.

The paper plots one density; since Fig. 5's ``N`` is not stated, we
expose it as a parameter and default to ``N = 5`` (mid-range of the
simulated densities).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from ..core.params import PAPER_PARAMETERS, ProtocolParameters
from ..core.sweep import SCHEME_FACTORIES, SweepSeries, fig5_series, paper_beamwidths
from ..metrics.summary import ReplicateSummary, summarize

__all__ = [
    "Fig5Row",
    "run_fig5",
    "format_fig5_table",
    "Fig5MeasuredRow",
    "run_fig5_measured",
    "format_fig5_measured_table",
]

import math


@dataclass(frozen=True)
class Fig5Row:
    """One beamwidth row of the Fig. 5 data."""

    beamwidth_deg: float
    throughput: dict[str, float]


def run_fig5(
    n_neighbors: float = 5.0,
    beamwidths: Sequence[float] | None = None,
    params: ProtocolParameters | None = None,
) -> list[Fig5Row]:
    """Compute the Fig. 5 series.

    Args:
        n_neighbors: mean neighbor count ``N``.
        beamwidths: beamwidths in radians (paper grid by default).
        params: packet lengths (paper's Section 3 values by default).
    """
    base = params if params is not None else PAPER_PARAMETERS
    base = base.with_neighbors(n_neighbors)
    widths = tuple(beamwidths) if beamwidths is not None else paper_beamwidths()
    series: dict[str, SweepSeries] = fig5_series(base, widths)
    rows = []
    for index, width in enumerate(widths):
        rows.append(
            Fig5Row(
                beamwidth_deg=math.degrees(width),
                throughput={
                    name: series[name].points[index].throughput
                    for name in SCHEME_FACTORIES
                },
            )
        )
    return rows


def format_fig5_table(rows: Sequence[Fig5Row]) -> str:
    """Render rows as the aligned text table printed by the bench."""
    schemes = list(SCHEME_FACTORIES)
    header = "beamwidth_deg  " + "  ".join(f"{s:>10}" for s in schemes)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "  ".join(f"{row.throughput[s]:10.4f}" for s in schemes)
        lines.append(f"{row.beamwidth_deg:13.0f}  {cells}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Measured Fig. 5 — the slot-model engine re-measures the curve.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5MeasuredRow:
    """One (beamwidth, scheme) point: closed form versus slot model.

    ``analytical`` is the model's maximum throughput at the optimum
    ``p_opt``; ``measured`` summarizes the slot-model engine's
    per-node throughput at that same ``p`` across replicate topologies.
    """

    beamwidth_deg: float
    scheme: str
    p: float
    analytical: float
    measured: ReplicateSummary


def run_fig5_measured(
    n_neighbors: float = 5.0,
    beamwidths: Sequence[float] | None = None,
    params: ProtocolParameters | None = None,
    *,
    schemes: Sequence[str] | None = None,
    slots: int = 3_000,
    replicates: int = 3,
    torus_factor: float = 6.0,
    base_seed: int = 2003,
) -> list[Fig5MeasuredRow]:
    """Re-measure the Fig. 5 optima with the batch slot-model engine.

    For each (scheme, beamwidth) point the analytical optimum
    ``(p_opt, Th_max)`` is computed as in :func:`run_fig5`, then the
    slot model is run at that ``p_opt`` on ``replicates`` independent
    torus draws (seeded through the campaign registry, common random
    numbers across schemes).
    """
    from ..slotsim import BatchSlotModelEngine, SlotModelConfig
    from .campaign import replicate_seed

    base = params if params is not None else PAPER_PARAMETERS
    base = base.with_neighbors(n_neighbors)
    widths = tuple(beamwidths) if beamwidths is not None else paper_beamwidths()
    names = tuple(schemes) if schemes is not None else tuple(SCHEME_FACTORIES)
    series = fig5_series(base, widths)
    rows = []
    for index, width in enumerate(widths):
        for name in names:
            point = series[name].points[index]
            config = SlotModelConfig(
                params=base.with_beamwidth(width),
                scheme=name,
                p=point.p_opt,
                torus_factor=torus_factor,
                seed=0,  # placeholder; replaced per replicate below
            )
            samples = []
            for replicate in range(replicates):
                seed = replicate_seed(base_seed, int(round(n_neighbors)), replicate)
                model = dataclasses.replace(config, seed=seed)
                (outcome,) = BatchSlotModelEngine(model).run(slots)
                samples.append(outcome.throughput_per_node)
            rows.append(
                Fig5MeasuredRow(
                    beamwidth_deg=math.degrees(width),
                    scheme=name,
                    p=point.p_opt,
                    analytical=point.throughput,
                    measured=summarize(samples),
                )
            )
    return rows


def format_fig5_measured_table(rows: Sequence[Fig5MeasuredRow]) -> str:
    """Aligned analytical-vs-measured table, one row per point."""
    header = (
        f"{'beamwidth':>9}  {'scheme':>10}  {'p_opt':>7}  "
        f"{'analytical':>10}  {'measured':>9}  {'std':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.beamwidth_deg:8.0f}d  {row.scheme:>10}  {row.p:7.4f}  "
            f"{row.analytical:10.4f}  {row.measured.mean:9.4f}  "
            f"{row.measured.std:7.4f}"
        )
    return "\n".join(lines)
