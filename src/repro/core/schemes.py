"""Common machinery for the three analytical collision-avoidance schemes.

Each scheme supplies three ingredients:

* ``p_ww(p)`` — the probability a waiting node stays waiting one more slot,
* ``p_ws_at_distance(r, p)`` — the probability a node successfully starts
  and completes a four-way handshake with a neighbor at distance ``r``,
* ``t_fail(p)`` — the expected length of a failed handshake in slots.

The base class turns those into the stationary distribution of the node
Markov chain and the saturation throughput::

    Th(p) = pi_s * l_data / (pi_w * 1 + pi_s * T_succeed + pi_f * T_fail)

Throughput is normalized: it is the fraction of channel time spent on
successfully delivered data payload, per node neighborhood.
"""

from __future__ import annotations

import abc
import math
from typing import ClassVar

from scipy import integrate

from .markov import StationaryDistribution, solve_node_chain
from .params import ProtocolParameters

__all__ = ["CollisionAvoidanceScheme"]


class CollisionAvoidanceScheme(abc.ABC):
    """Template for the ORTS-OCTS / DRTS-DCTS / DRTS-OCTS analyses."""

    #: Human-readable scheme name, e.g. ``"DRTS-DCTS"``.
    name: ClassVar[str] = "abstract"
    #: Whether the scheme uses directional transmissions anywhere.
    uses_directional_transmissions: ClassVar[bool] = False

    def __init__(self, params: ProtocolParameters) -> None:
        self._params = params

    @property
    def params(self) -> ProtocolParameters:
        """The protocol parameters, fixed at construction.

        Read-only: the schemes hoist terms derived from them out of the
        per-distance integrand.
        """
        return self._params

    # ------------------------------------------------------------------
    # Scheme-specific pieces.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def p_ww(self, p: float) -> float:
        """Probability that a waiting node stays in *wait* for a slot."""

    @abc.abstractmethod
    def p_ws_at_distance(self, r: float, p: float) -> float:
        """``P_ws(r)``: success probability toward a neighbor at distance ``r``.

        ``r`` is normalized to the transmission range (``0 < r <= 1``).
        """

    @abc.abstractmethod
    def t_fail(self, p: float) -> float:
        """Expected duration of a failed handshake, in slots."""

    # ------------------------------------------------------------------
    # Derived quantities (shared by every scheme).
    # ------------------------------------------------------------------

    def t_succeed(self) -> float:
        """Duration of a successful four-way handshake, in slots."""
        return self.params.t_succeed

    def p_ws(self, p: float) -> float:
        """``P_ws = \\int_0^1 2 r P_ws(r) dr``.

        The factor ``2r`` is the density of the distance to a uniformly
        chosen neighbor inside the unit disk.
        """
        self._check_p(p)
        at_distance = self.p_ws_at_distance
        value, _abserr = integrate.quad(
            lambda r: 2.0 * r * at_distance(r, p), 0.0, 1.0, limit=100
        )
        # Guard against tiny negative values from quadrature noise.
        return min(max(value, 0.0), 1.0)

    def stationary(self, p: float) -> StationaryDistribution:
        """Stationary distribution of the wait/succeed/fail node chain."""
        self._check_p(p)
        return solve_node_chain(p_ww=self.p_ww(p), p_ws=self.p_ws(p))

    def throughput(self, p: float) -> float:
        """Saturation throughput at per-slot transmission probability ``p``."""
        self._check_p(p)
        pi = self.stationary(p)
        denominator = (
            pi.wait * 1.0
            + pi.succeed * self.t_succeed()
            + pi.fail * self.t_fail(p)
        )
        return pi.succeed * self.params.l_data / denominator

    def expected_service_slots(self, p: float) -> float:
        """Expected slots per *delivered* packet under saturation.

        By renewal-reward, the mean time between successes is the mean
        cycle time over the success probability::

            E[service] = (pi_w * 1 + pi_s * T_s + pi_f * T_f) / pi_s

        This is the analytical counterpart of the Fig. 7 delay metric
        (up to the slot/wall-clock conversion) and the exact inverse of
        per-packet throughput: ``Th = l_data / E[service]``.
        """
        self._check_p(p)
        pi = self.stationary(p)
        if pi.succeed == 0.0:
            return math.inf
        cycle = (
            pi.wait * 1.0
            + pi.succeed * self.t_succeed()
            + pi.fail * self.t_fail(p)
        )
        return cycle / pi.succeed

    # ------------------------------------------------------------------

    @staticmethod
    def _check_p(p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(params={self.params!r})"
