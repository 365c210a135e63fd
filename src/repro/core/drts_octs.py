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

import math
from typing import ClassVar

from .geometry import _drts_octs_area_tuple, distance_error
from .schemes import CollisionAvoidanceScheme
from .truncgeom import truncated_geometric_mean

__all__ = ["DrtsOcts"]


class DrtsOcts(CollisionAvoidanceScheme):
    """Analytical model of the hybrid directional-RTS / omni-CTS scheme."""

    name: ClassVar[str] = "DRTS-OCTS"
    uses_directional_transmissions: ClassVar[bool] = True

    def __init__(self, params) -> None:
        super().__init__(params)
        # The r- and p-independent factors of P_I(r): the RTS window and
        # the receiver's CTS + ACK window, in slots.
        self._terms = (
            params.n_neighbors,
            params.directional_fraction,
            params.beamwidth,
            2.0 * params.l_rts,
            2.0 * params.l_rts + params.l_cts + params.l_ack + 2.0,
        )

    def p_ww(self, p: float) -> float:
        """``P_ww = (1-p) * exp(-p*N)``.

        Nearly every handshake, failed or successful, includes an
        omni-directional CTS, so a waiting node is effectively exposed to
        its whole neighborhood — the same expression as ORTS-OCTS.
        """
        self._check_p(p)
        return (1.0 - p) * math.exp(-p * self.params.n_neighbors)

    def interference_free_probability(self, r: float, p: float) -> float:
        """``P_I(r) = p1 * p2 * p3`` over the three areas of Section 2.3."""
        self._check_p(p)
        if not 0.0 <= r <= 1.0:
            raise distance_error(r)
        n, fraction, theta, rts_window, receiver_tx = self._terms
        s1, s2, s3 = _drts_octs_area_tuple(r, theta)
        p_dir = p * fraction
        p1 = math.exp(-p * s1 * n)
        p2 = math.exp(-p_dir * s2 * n * rts_window) * math.exp(-p * s2 * n)
        p3 = math.exp(-p_dir * s3 * n * receiver_tx)
        return p1 * p2 * p3

    def p_ws_at_distance(self, r: float, p: float) -> float:
        """``P_ws(r) = p * (1-p) * P_I(r)``."""
        return p * (1.0 - p) * self.interference_free_probability(r, p)

    def t_fail(self, p: float) -> float:
        """Truncated geometric mean with the omni-CTS-aware lower bound."""
        self._check_p(p)
        lower = self.params.l_rts + self.params.l_cts + 2.0
        upper = self.params.t_succeed
        return truncated_geometric_mean(p, lower, upper)
