"""DRTS-OCTS: directional RTS/data/ACK with omni-directional CTS (§2.3).

This hybrid (after Ko et al.) beams the RTS at the receiver, then the
receiver answers with an *omni-directional* CTS that silences every
hidden terminal, after which data and ACK are beamed.  The interfering
region splits into three areas:

* **Area I** (the sender's beam sector): silent for one slot,
* **Area II** (the rest of the plane within reach): no beam at the
  receiver for the ``2*l_rts`` window and silent when the receiver's
  reply lands — afterwards the omni CTS protects the handshake,
* **Area III** (receiver-only region ``B(r)``): no beam at the sender
  while the receiver transmits CTS and ACK.

Because the omni CTS itself can crash into ongoing neighbor handshakes,
the paper uses the *later* lower bound ``l_rts + l_cts + 2`` for the
truncated-geometric failed period, acknowledging that failures caused by
the CTS are discovered no earlier than the CTS exchange.
"""

from __future__ import annotations

from functools import partial
from typing import ClassVar

from .geometry import _drts_octs_area_tuple
from .schemes import BEAM, OMNI, CollisionAvoidanceScheme, ConstraintTable
from .truncgeom import truncated_geometric_mean

__all__ = ["DrtsOcts"]


class DrtsOcts(CollisionAvoidanceScheme):
    """Analytical model of the hybrid directional-RTS / omni-CTS scheme.

    ``P_ww`` is the omni form ``(1-p) * exp(-p*N)``: nearly every
    handshake, failed or successful, includes an omni-directional CTS,
    so a waiting node is effectively exposed to its whole neighborhood.
    """

    name: ClassVar[str] = "DRTS-OCTS"
    uses_directional_transmissions: ClassVar[bool] = True

    def __init__(self, params) -> None:
        super().__init__(params)
        l_rts, l_cts, l_ack = params.l_rts, params.l_cts, params.l_ack
        self._table = ConstraintTable(
            partial(_drts_octs_area_tuple, params.beamwidth),
            (
                ((1.0, OMNI),),  # Area I
                ((2.0 * l_rts, BEAM), (1.0, OMNI)),  # Area II
                ((2.0 * l_rts + l_cts + l_ack + 2.0, BEAM),),  # Area III
            ),
        )

    def t_fail(self, p: float) -> float:
        """Truncated geometric mean with the omni-CTS-aware lower bound."""
        self._check_p(p)
        lower = self.params.l_rts + self.params.l_cts + 2.0
        upper = self.params.t_succeed
        return truncated_geometric_mean(p, lower, upper)
