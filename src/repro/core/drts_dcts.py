"""DRTS-DCTS: the all-directional scheme (Section 2.2).

Every packet — RTS, CTS, data and ACK — is beamed at the peer with
beamwidth ``theta``.  Spatial reuse is maximal, but nothing silences the
neighborhood, so the handshake stays vulnerable throughout.  The success
probability multiplies five independent no-interference events, one per
region of Fig. 3:

* **Area I** (the sender's beam sector): silent for one slot,
* **Area II** (receiver-exposed sliver): no beam at the receiver for the
  ``2*l_rts`` RTS window and silent when the receiver's reply lands,
* **Area III** (the lens covered by both disks): no beam at the pair for
  the entire handshake (``2*l_rts + l_cts + l_data + l_ack + 4`` slots,
  with the paper's ``theta' = theta`` simplification),
* **Area IV** (receiver-only region ``B(r)``): no beam at the sender
  while the receiver transmits CTS and ACK
  (``2*l_rts + l_cts + l_ack + 2`` slots),
* **Area V** (sender-only region): no beam at the receiver while the
  sender transmits RTS and data (``3*l_rts + l_data + 2`` slots).

Directional transmissions only threaten a victim with probability
``p' = p * theta / (2*pi)`` — the chance a random beam covers it.

Failed handshakes can be cut short at any point, so ``T_fail`` is the
mean of a geometric distribution truncated to
``[l_rts + 1, T_succeed]``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import ClassVar

from .geometry import _drts_dcts_area_tuple
from .schemes import BEAM, OMNI, SPAN, CollisionAvoidanceScheme, ConstraintTable
from .truncgeom import truncated_geometric_mean

__all__ = ["DrtsDcts"]


class DrtsDcts(CollisionAvoidanceScheme):
    """Analytical model of the all-directional scheme.

    Args:
        params: protocol parameters.
        area3_span_factor: the Area-III direction-span choice.  The
            paper notes the true span ``theta'`` lies between ``theta``
            (nodes near the pair's axis) and ``2*theta``, then
            "for simplicity, we just choose theta' = theta".  Factor
            1.0 reproduces the paper; 2.0 gives the conservative upper
            bound; the two bracket the truth (see the ablation bench).
    """

    name: ClassVar[str] = "DRTS-DCTS"
    uses_directional_transmissions: ClassVar[bool] = True

    def __init__(self, params, area3_span_factor: float = 1.0) -> None:
        super().__init__(params)
        if not 1.0 <= area3_span_factor <= 2.0:
            raise ValueError(
                "area3_span_factor must be in [1, 2], got "
                f"{area3_span_factor!r}"
            )
        self._area3_span_factor = area3_span_factor
        l_rts, l_cts = params.l_rts, params.l_cts
        l_data, l_ack = params.l_data, params.l_ack
        self._table = ConstraintTable(
            partial(_drts_dcts_area_tuple, params.beamwidth),
            (
                ((1.0, OMNI),),  # Area I
                ((2.0 * l_rts, BEAM), (1.0, OMNI)),  # Area II
                ((2.0 * l_rts + l_cts + l_data + l_ack + 4.0, SPAN),),  # Area III
                ((2.0 * l_rts + l_cts + l_ack + 2.0, BEAM),),  # Area IV
                ((3.0 * l_rts + l_data + 2.0, BEAM),),  # Area V
            ),
            # Area III's beams span theta' = factor * theta.
            span=min(area3_span_factor * params.beamwidth, 2.0 * math.pi),
        )

    @property
    def area3_span_factor(self) -> float:
        """Area III's beam span as a multiple of ``theta`` (read-only)."""
        return self._area3_span_factor

    def p_ww(self, p: float) -> float:
        """``P_ww = (1-p) * exp(-p' * N)`` with ``p' = p*theta/(2*pi)``.

        Only neighbors that happen to beam *at* the waiting node disturb
        it, hence the thinned probability ``p'``.
        """
        self._check_p(p)
        p_directional = p * self.params.directional_fraction
        return (1.0 - p) * math.exp(-p_directional * self.params.n_neighbors)

    def t_fail(self, p: float) -> float:
        """Mean of the truncated geometric failed period (equation (3))."""
        self._check_p(p)
        lower = self.params.l_rts + 1.0
        upper = self.params.t_succeed
        return truncated_geometric_mean(p, lower, upper)
