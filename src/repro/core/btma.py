"""Idealized busy-tone multiple access (BTMA) baseline.

The paper's model lineage runs through Tobagi & Kleinrock's busy-tone
solution to the hidden-terminal problem [8] and Wu & Varshney's BTMA
analysis in the same Poisson framework [10].  This module adds an
*idealized* BTMA point of comparison: the receiver raises an
out-of-band busy tone the moment a data packet starts arriving, and the
tone perfectly silences every node in its hearing disk.

Mapping into the node chain:

* The sender transmits data directly (no RTS/CTS).  The vulnerable
  window is one slot at the sender's neighborhood *plus* one slot at
  the hidden region ``B(r)`` — after the first slot the busy tone
  protects the rest of the packet.
* ``T_succeed = l_data + l_ack + 2``.
* A failure wastes the whole data frame: ``T_fail = l_data + 1``.

Even with a perfect tone, same-slot collisions still destroy whole
data frames, so BTMA wins over the RTS/CTS handshake only while data
packets are short — the crossover (around ``l_data ~ 20-50`` slots for
the paper's control sizes) is precisely the paper's Section-3 warrant
that long data packets justify an RTS/CTS handshake.
"""

from __future__ import annotations

from typing import ClassVar

from .geometry import _omni_area_tuple
from .schemes import OMNI, CollisionAvoidanceScheme, ConstraintTable

__all__ = ["IdealizedBtma"]


class IdealizedBtma(CollisionAvoidanceScheme):
    """Analytical model of idealized busy-tone multiple access."""

    name: ClassVar[str] = "BTMA-ideal"
    uses_directional_transmissions: ClassVar[bool] = False

    def __init__(self, params) -> None:
        super().__init__(params)
        # One vulnerable slot each at the neighborhood and B(r).
        self._table = ConstraintTable(
            _omni_area_tuple, (((1.0, OMNI),), ((1.0, OMNI),))
        )

    def t_succeed(self) -> float:
        """Data plus ACK, each with one turnaround slot (no handshake)."""
        return self.params.l_data + self.params.l_ack + 2.0

    def t_fail(self, p: float) -> float:
        """A failed transmission wastes the whole data frame."""
        self._check_p(p)
        return self.params.l_data + 1.0
