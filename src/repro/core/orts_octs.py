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

import math
from typing import ClassVar

from .geometry import distance_error, hidden_area
from .schemes import CollisionAvoidanceScheme

__all__ = ["OrtsOcts"]


class OrtsOcts(CollisionAvoidanceScheme):
    """Analytical model of the all-omni-directional scheme."""

    name: ClassVar[str] = "ORTS-OCTS"
    uses_directional_transmissions: ClassVar[bool] = False

    def p_ww(self, p: float) -> float:
        """``P_ww = (1-p) * exp(-p*N)``.

        The node itself stays silent and none of its (Poisson many)
        neighbors starts transmitting.
        """
        self._check_p(p)
        return (1.0 - p) * math.exp(-p * self.params.n_neighbors)

    def p_ws_at_distance(self, r: float, p: float) -> float:
        """``P_ws(r) = P1 * P2 * P3 * P4(r)`` from Section 2.1."""
        self._check_p(p)
        if not 0.0 <= r <= 1.0:
            raise distance_error(r)
        n = self.params.n_neighbors
        p1 = p                               # x transmits
        p2 = 1.0 - p                         # y silent
        p3 = math.exp(-p * n)                # x's neighborhood silent
        vulnerable = 2.0 * self.params.l_rts + 1.0
        p4 = math.exp(-p * n * hidden_area(r) * vulnerable)
        return p1 * p2 * p3 * p4

    def t_fail(self, p: float) -> float:
        """Failures are detected right after the missing CTS window."""
        self._check_p(p)
        return self.params.t_fail_omni
