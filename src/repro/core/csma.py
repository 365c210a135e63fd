"""Non-persistent CSMA baseline within the same node model.

The paper's model descends from Takagi & Kleinrock's and Wu & Varshney's
analyses of CSMA, and its Section 1 positions RTS/CTS collision
avoidance against plain carrier sensing.  This module closes the loop by
expressing non-persistent CSMA (data + ACK, no RTS/CTS) in the *same*
three-state node chain, which makes for a clean ablation: with long data
packets the whole data frame is vulnerable to hidden terminals, so CSMA
collapses as ``N`` or ``l_data`` grow, exactly the regime in which the
handshake schemes earn their overhead.

The mapping mirrors ORTS-OCTS with the RTS's role played by the data
packet itself:

* success requires the sender's neighborhood silent for one slot and all
  hidden terminals in ``B(r)`` silent for ``2*l_data + 1`` slots,
* ``T_succeed = l_data + l_ack + 2``,
* a failure costs a full data packet: ``T_fail = l_data + 1``.
"""

from __future__ import annotations

from typing import ClassVar

from .geometry import _omni_area_tuple
from .schemes import OMNI, CollisionAvoidanceScheme, ConstraintTable

__all__ = ["NonPersistentCsma"]


class NonPersistentCsma(CollisionAvoidanceScheme):
    """Analytical model of non-persistent CSMA with omni antennas."""

    name: ClassVar[str] = "NP-CSMA"
    uses_directional_transmissions: ClassVar[bool] = False

    def __init__(self, params) -> None:
        super().__init__(params)
        # The entire data frame is the vulnerable period.
        self._table = ConstraintTable(
            _omni_area_tuple,
            (((1.0, OMNI),), ((2.0 * params.l_data + 1.0, OMNI),)),
        )

    def t_succeed(self) -> float:
        """Data plus ACK, each with one turnaround slot."""
        return self.params.l_data + self.params.l_ack + 2.0

    def t_fail(self, p: float) -> float:
        """A failed transmission wastes the whole data frame."""
        self._check_p(p)
        return self.params.l_data + 1.0
