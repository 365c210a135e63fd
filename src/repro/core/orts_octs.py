"""ORTS-OCTS: the all-omni-directional RTS/CTS scheme (Section 2.1).

This is the classic sender-initiated collision-avoidance handshake used
by IEEE 802.11: every packet — RTS, CTS, data and ACK — is transmitted
omni-directionally.  Assuming *correct* collision avoidance (once the
receiver starts its CTS the rest of the handshake cannot be disturbed),
the only vulnerable window is the RTS itself:

* every neighbor of the sender must stay silent in the RTS slot, and
* every hidden terminal (in ``B(r)``) must stay silent for the
  ``2*l_rts + 1`` slots around the RTS.

Failed handshakes always cost ``l_rts + l_cts + 2`` slots.
"""

from __future__ import annotations

from typing import ClassVar

from .geometry import _omni_area_tuple
from .schemes import OMNI, CollisionAvoidanceScheme, ConstraintTable

__all__ = ["OrtsOcts"]


class OrtsOcts(CollisionAvoidanceScheme):
    """Analytical model of the all-omni-directional scheme."""

    name: ClassVar[str] = "ORTS-OCTS"
    uses_directional_transmissions: ClassVar[bool] = False

    def __init__(self, params) -> None:
        super().__init__(params)
        # P_ws(r) = P1 * P2 * P3 * P4(r): x transmits, y is silent, x's
        # neighborhood is silent for a slot, B(r) for the RTS window.
        self._table = ConstraintTable(
            _omni_area_tuple,
            (((1.0, OMNI),), ((2.0 * params.l_rts + 1.0, OMNI),)),
        )

    def t_fail(self, p: float) -> float:
        """Failures are detected right after the missing CTS window."""
        self._check_p(p)
        return self.params.t_fail_omni
