"""Section 4's grid statistics and the one grid-table layout.

The paper's Fig. 6 throughput, Fig. 7 delay, collision ratio and
fairness discussion are four summaries of one simulation campaign:
each reads one :class:`~repro.experiments.campaign.ReplicateMetrics`
field per ``(N, scheme, beamwidth)`` cell and prints it on the same
grid.  :data:`GRID_STATISTICS` holds one row per summary (the CLI
builds a subcommand from each), :func:`summarize_grid` reduces a
campaign to one statistic, and :func:`format_grid` is the N-grouped,
beamwidth-row, scheme-column table every grid study prints (the
multi-hop and slot-model studies pass their own cell renderers).

* ``fig6`` — mean inner-node throughput with the min-max range over
  topologies (the paper's vertical bars);
* ``fig7`` — mean MAC service delay (enqueue to ACK) of packets the
  inner nodes originated;
* ``collision`` — "the number of transmitted RTS packets that lead to
  ACK timeouts due to collisions of data packets" over the handshakes
  that reached the data stage: the paper's measure of the
  imperfectness of collision avoidance (figure omitted for space);
* ``fairness`` — Jain's index over the inner nodes' throughputs, which
  quantifies the paper's observations that BEB "always favors the node
  that succeeds last", that starvation is worse for wider beams and
  less severe for larger ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..metrics.summary import ReplicateSummary, summarize
from .campaign import CellResult

__all__ = [
    "GRID_STATISTICS",
    "GridCell",
    "GridStatistic",
    "format_grid",
    "summarize_grid",
]


@dataclass(frozen=True)
class GridCell:
    """One statistic's cross-replicate summary in one grid cell."""

    n: int
    scheme: str
    beamwidth_deg: float
    summary: ReplicateSummary


@dataclass(frozen=True)
class GridStatistic:
    """One Section-4 summary: which field to read and how to print it."""

    #: CLI help of the statistic's subcommand.
    help: str
    #: The :class:`~repro.experiments.campaign.ReplicateMetrics` field.
    metric: str
    #: Per-N table heading; ``{n}`` is replaced by the density.
    heading: str
    #: Column width of the scheme names (and of a missing cell).
    width: int
    #: Text of one present :class:`GridCell`.
    render: Callable[[GridCell], str]

    def format(self, cells: Sequence[GridCell]) -> str:
        """The :func:`format_grid` table of this statistic's cells."""
        return format_grid(cells, self.heading, self.width, self.render)


GRID_STATISTICS: dict[str, GridStatistic] = {
    "fig6": GridStatistic(
        help="simulated throughput grid",
        metric="inner_throughput_bps",
        heading="throughput of inner {n} nodes, Mbps",
        width=24,
        render=lambda c: (
            f"{c.summary.mean / 1e6:6.3f} "
            f"[{c.summary.minimum / 1e6:5.3f},{c.summary.maximum / 1e6:5.3f}]"
        ),
    ),
    "fig7": GridStatistic(
        help="simulated delay grid",
        metric="inner_mean_delay_s",
        heading="mean MAC service delay of inner nodes, ms",
        width=24,
        render=lambda c: (
            f"{c.summary.mean * 1e3:6.1f} "
            f"[{c.summary.minimum * 1e3:5.1f},{c.summary.maximum * 1e3:5.1f}]"
        ),
    ),
    "collision": GridStatistic(
        help="Section-4 collision-ratio statistic",
        metric="inner_collision_ratio",
        heading="ACK-timeout fraction of data-stage handshakes",
        width=12,
        render=lambda c: f"{c.summary.mean:12.3f}",
    ),
    "fairness": GridStatistic(
        help="Section-4 fairness statistic",
        metric="inner_fairness",
        heading="Jain fairness index of inner-node throughputs",
        width=12,
        render=lambda c: f"{c.summary.mean:12.3f}",
    ),
}


def summarize_grid(cells: Sequence[CellResult], metric: str) -> list[GridCell]:
    """Summarize one replicate field across each campaign cell."""
    return [
        GridCell(c.n, c.scheme, c.beamwidth_deg, summarize(c.metric(metric)))
        for c in cells
    ]


def format_grid(
    cells: Sequence[Any],
    heading: str,
    width: int,
    render: Callable[[Any], str],
) -> str:
    """Aligned text table grouped by N, one row per beamwidth.

    ``cells`` are any records with ``n``, ``scheme`` and
    ``beamwidth_deg``; a scheme column the grid lacks at some
    ``(N, beamwidth)`` is padded with ``width`` blanks.
    """
    by_key = {(c.n, c.scheme, c.beamwidth_deg): c for c in cells}
    schemes = sorted({c.scheme for c in cells}, key=str)
    lines = []
    for n in sorted({c.n for c in cells}):
        lines.append(f"N = {n}  ({heading.format(n=n)})")
        lines.append("  beamwidth  " + "  ".join(f"{s:>{width}}" for s in schemes))
        for beamwidth in sorted({c.beamwidth_deg for c in cells if c.n == n}):
            row = [f"  {beamwidth:7.0f}dg "]
            for scheme in schemes:
                cell = by_key.get((n, scheme, beamwidth))
                row.append(" " * width if cell is None else render(cell))
            lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)
