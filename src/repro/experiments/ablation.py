"""Ablations over the design choices DESIGN.md calls out.

Three studies, all cheap and analytical unless noted:

1. **p-optimisation vs fixed p** — Fig. 5 plots *maximum achievable*
   throughput; how much of each scheme's ranking depends on tuning
   ``p`` per point rather than fixing one value for all schemes?
2. **DRTS-OCTS T_fail lower bound** — Section 2.3 deliberately uses
   ``l_rts + l_cts + 2`` (not ``l_rts + 1``) as the truncated-geometric
   lower bound to charge the omni-CTS for its disruptiveness.  How much
   does that choice move the curve?
3. **802.11 retry limit** (simulation) — the paper's BEB-starvation
   argument implies throughput is sensitive to how long losers stay in
   high-CW states; the retry limit caps exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.drts_octs import DrtsOcts
from ..core.optimize import maximize_throughput
from ..core.params import PAPER_PARAMETERS
from ..core.sweep import SCHEME_FACTORIES
from ..core.truncgeom import truncated_geometric_mean

__all__ = [
    "FixedPRow",
    "run_fixed_p_ablation",
    "TFailRow",
    "run_tfail_ablation",
    "Area3SpanRow",
    "run_area3_span_ablation",
    "format_fixed_p_table",
    "format_tfail_table",
    "format_area3_span_table",
]


@dataclass(frozen=True)
class FixedPRow:
    """Throughput at several fixed p values vs the optimised p."""

    scheme: str
    beamwidth_deg: float
    fixed: dict[float, float]
    optimised: float


def run_fixed_p_ablation(
    n_neighbors: float = 5.0,
    beamwidth_deg: float = 30.0,
    p_values: Sequence[float] = (0.01, 0.03, 0.05, 0.1),
) -> list[FixedPRow]:
    """Compare fixed-p throughput against the per-point optimum."""
    params = PAPER_PARAMETERS.with_neighbors(n_neighbors).with_beamwidth(
        math.radians(beamwidth_deg)
    )
    rows = []
    for name, factory in SCHEME_FACTORIES.items():
        scheme = factory(params)
        rows.append(
            FixedPRow(
                scheme=name,
                beamwidth_deg=beamwidth_deg,
                fixed={p: scheme.throughput(p) for p in p_values},
                optimised=maximize_throughput(scheme).throughput,
            )
        )
    return rows


class _DrtsOctsEarlyFail(DrtsOcts):
    """DRTS-OCTS with the *optimistic* T_fail bound (``l_rts + 1``)."""

    name = "DRTS-OCTS(early-fail)"

    def t_fail(self, p: float) -> float:
        self._check_p(p)
        return truncated_geometric_mean(
            p, self.params.l_rts + 1.0, self.params.t_succeed
        )


@dataclass(frozen=True)
class TFailRow:
    """Paper bound vs optimistic bound for DRTS-OCTS."""

    beamwidth_deg: float
    paper_bound: float
    early_bound: float

    @property
    def relative_change(self) -> float:
        if self.paper_bound == 0.0:
            return 0.0
        return (self.early_bound - self.paper_bound) / self.paper_bound


def run_tfail_ablation(
    n_neighbors: float = 5.0,
    beamwidths_deg: Sequence[float] = (30.0, 90.0, 150.0),
) -> list[TFailRow]:
    """Quantify the Section-2.3 T_fail lower-bound choice."""
    rows = []
    for beamwidth in beamwidths_deg:
        params = PAPER_PARAMETERS.with_neighbors(n_neighbors).with_beamwidth(
            math.radians(beamwidth)
        )
        rows.append(
            TFailRow(
                beamwidth_deg=beamwidth,
                paper_bound=maximize_throughput(DrtsOcts(params)).throughput,
                early_bound=maximize_throughput(
                    _DrtsOctsEarlyFail(params)
                ).throughput,
            )
        )
    return rows


@dataclass(frozen=True)
class Area3SpanRow:
    """DRTS-DCTS throughput under the two Area-III span bounds.

    Section 2.2 item 3: the direction span ``theta'`` of the Area-III
    constraint truly lies in ``[theta, 2*theta]``; the paper picks
    ``theta`` "for simplicity".  The two bounds bracket the truth.
    """

    beamwidth_deg: float
    paper_span: float  # theta' = theta (the paper's choice)
    upper_span: float  # theta' = 2*theta (conservative bound)

    @property
    def bracket_width(self) -> float:
        """Relative width of the bracket (how much the choice matters)."""
        if self.paper_span == 0.0:
            return 0.0
        return (self.paper_span - self.upper_span) / self.paper_span


def run_area3_span_ablation(
    n_neighbors: float = 5.0,
    beamwidths_deg: Sequence[float] = (15.0, 30.0, 90.0, 150.0),
) -> list[Area3SpanRow]:
    """Bracket the paper's ``theta' = theta`` simplification."""
    from ..core.drts_dcts import DrtsDcts

    rows = []
    for beamwidth in beamwidths_deg:
        params = PAPER_PARAMETERS.with_neighbors(n_neighbors).with_beamwidth(
            math.radians(beamwidth)
        )
        rows.append(
            Area3SpanRow(
                beamwidth_deg=beamwidth,
                paper_span=maximize_throughput(
                    DrtsDcts(params, area3_span_factor=1.0)
                ).throughput,
                upper_span=maximize_throughput(
                    DrtsDcts(params, area3_span_factor=2.0)
                ).throughput,
            )
        )
    return rows


def format_area3_span_table(rows: Sequence[Area3SpanRow]) -> str:
    """Aligned rendering of the Area-III span bracket."""
    lines = [
        "beamwidth  theta'=theta  theta'=2theta  bracket",
        "-----------------------------------------------",
    ]
    for row in rows:
        lines.append(
            f"{row.beamwidth_deg:7.0f}dg  {row.paper_span:12.4f}  "
            f"{row.upper_span:13.4f}  {row.bracket_width:+7.2%}"
        )
    return "\n".join(lines)


def format_fixed_p_table(rows: Sequence[FixedPRow]) -> str:
    """Aligned rendering of the fixed-p ablation."""
    if not rows:
        return "(no rows)"
    p_values = sorted(rows[0].fixed)
    header = "scheme      " + "  ".join(f"p={p:<6g}" for p in p_values) + "  optimised"
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = "  ".join(f"{row.fixed[p]:8.4f}" for p in p_values)
        lines.append(f"{row.scheme:10s}  {cells}  {row.optimised:9.4f}")
    return "\n".join(lines)


def format_tfail_table(rows: Sequence[TFailRow]) -> str:
    """Aligned rendering of the T_fail-bound ablation."""
    lines = [
        "beamwidth  paper-bound  early-bound  change",
        "-------------------------------------------",
    ]
    for row in rows:
        lines.append(
            f"{row.beamwidth_deg:7.0f}dg  {row.paper_bound:11.4f}  "
            f"{row.early_bound:11.4f}  {row.relative_change:+6.2%}"
        )
    return "\n".join(lines)
