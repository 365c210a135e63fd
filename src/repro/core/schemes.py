"""Common machinery for the three analytical collision-avoidance schemes.

Each scheme supplies three ingredients:

* ``p_ww(p)`` — the probability a waiting node stays waiting one more
  slot (the omni form ``(1-p) * exp(-p*N)`` unless overridden),
* a :class:`ConstraintTable`, declared in ``__init__`` — Section 2's
  "no node in area ``S_i(r)`` transmits, with probability ``p`` or
  ``p' = p*theta/(2*pi)``, for ``d_i`` slots", from which the base class
  evaluates ``P_ws(r)``, the probability a node successfully starts and
  completes a handshake with a neighbor at distance ``r``,
* ``t_fail(p)`` — the expected length of a failed handshake in slots.

The quadrature integrand here, the numpy fast path
(:mod:`repro.core.fastpath`) and the Monte-Carlo sampler
(:mod:`repro.core.montecarlo`) all read the same table.  The base class
turns it into the stationary distribution of the node Markov chain and
the saturation throughput::

    Th(p) = pi_s * l_data / (pi_w * 1 + pi_s * T_succeed + pi_f * T_fail)

Throughput is normalized: it is the fraction of channel time spent on
successfully delivered data payload, per node neighborhood.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from scipy import integrate

from .geometry import distance_error
from .markov import StationaryDistribution, solve_node_chain
from .params import ProtocolParameters

__all__ = ["BEAM", "OMNI", "SPAN", "CollisionAvoidanceScheme", "ConstraintTable"]

#: How a window thins the per-slot transmit probability ``p``: every
#: transmission interferes (``OMNI``), only a beam that happens to cover
#: the victim does (``BEAM``, ``p' = p*theta/(2*pi)``), or a beam over
#: the table's Area-III ``span`` does (``SPAN``, ``p*span/(2*pi)``).
OMNI, BEAM, SPAN = "omni", "beam", "span"


@dataclass(frozen=True)
class ConstraintTable:
    """One scheme's Section-2 interference constraints.

    Attributes:
        areas: ``r -> (S_1(r), S_2(r), ...)``, the normalized areas,
            unchecked (callers test ``0 <= r <= 1``).
        windows: per area, its ``(slots, thinning)`` windows: no node in
            the area transmits, with ``p`` thinned as ``thinning`` says,
            for ``slots`` consecutive slots.
        span: the beam span of ``SPAN`` windows, in radians.
        rows: derived, every window in order as ``(area index, slots,
            thinning, closes)``, ``closes`` marking an area's last window.
    """

    areas: Callable[[float], tuple[float, ...]]
    windows: tuple[tuple[tuple[float, str], ...], ...]
    span: float = 0.0
    rows: tuple[tuple[int, float, str, bool], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = tuple(
            (index, slots, thinning, position == len(windows) - 1)
            for index, windows in enumerate(self.windows)
            for position, (slots, thinning) in enumerate(windows)
        )
        object.__setattr__(self, "rows", rows)


class CollisionAvoidanceScheme(abc.ABC):
    """Template for the ORTS-OCTS / DRTS-DCTS / DRTS-OCTS analyses."""

    #: Human-readable scheme name, e.g. ``"DRTS-DCTS"``.
    name: ClassVar[str] = "abstract"
    #: Whether the scheme uses directional transmissions anywhere (it
    #: also picks the table's evaluation order, see ``_at_distance``).
    uses_directional_transmissions: ClassVar[bool] = False

    #: Set by each scheme's ``__init__``; see :attr:`constraint_table`.
    _table: ConstraintTable | None = None

    def __init__(self, params: ProtocolParameters) -> None:
        self._params = params

    @property
    def params(self) -> ProtocolParameters:
        """The protocol parameters, fixed at construction.

        Read-only: each scheme builds its constraint table from them.
        """
        return self._params

    @property
    def constraint_table(self) -> ConstraintTable:
        """The scheme's interference constraints (read-only).

        Raises:
            TypeError: the scheme declares no table.
        """
        if self._table is None:
            raise TypeError(f"{type(self).__name__} declares no constraint table")
        return self._table

    # ------------------------------------------------------------------
    # Scheme-specific pieces.
    # ------------------------------------------------------------------

    def p_ww(self, p: float) -> float:
        """``P_ww = (1-p) * exp(-p*N)``: the node stays silent and none
        of its (Poisson many) neighbors starts transmitting."""
        self._check_p(p)
        return (1.0 - p) * math.exp(-p * self.params.n_neighbors)

    @abc.abstractmethod
    def t_fail(self, p: float) -> float:
        """Expected duration of a failed handshake, in slots."""

    # ------------------------------------------------------------------
    # The constraint table, evaluated.
    # ------------------------------------------------------------------

    def _at_distance(self, p: float, scale: float) -> Callable[[float], float]:
        """``r -> scale * P_I(r)`` at a fixed ``p``, with the table's
        ``(-q, slots)`` rows computed once.

        ``P_I(r)`` multiplies ``exp(-q * S_i(r) * N * d)`` over every
        window.  The directional schemes form each area's factor first
        (Area II's ``exp(a) * exp(b)``), multiply the areas in order,
        then ``scale``.  The omni schemes multiply ``scale`` by one factor
        per window, in the paper's ``P1 * P2 * P3 * P4`` order, each
        written ``exp(-p * N * S * d)``.  Both orders are pinned bit for
        bit by the Fig. 5 digests.
        """
        table = self.constraint_table
        n = self.params.n_neighbors
        thinned = {
            OMNI: p,
            BEAM: p * self.params.directional_fraction,
            SPAN: p * table.span / (2.0 * math.pi),
        }
        areas = table.areas
        exp = math.exp
        if self.uses_directional_transmissions:
            rows = [
                (index, -thinned[thinning], slots, closes)
                for index, slots, thinning, closes in table.rows
            ]

            def directional(r: float) -> float:
                if not 0.0 <= r <= 1.0:
                    raise distance_error(r)
                s = areas(r)
                value = factor = 1.0
                for index, neg_q, slots, closes in rows:
                    factor *= exp(neg_q * s[index] * n * slots)
                    if closes:
                        value *= factor
                        factor = 1.0
                return scale * value

            return directional

        rows = [
            (index, -thinned[thinning] * n, slots)
            for index, slots, thinning, _closes in table.rows
        ]

        def omni(r: float) -> float:
            if not 0.0 <= r <= 1.0:
                raise distance_error(r)
            s = areas(r)
            value = scale
            for index, neg_qn, slots in rows:
                value *= exp(neg_qn * s[index] * slots)
            return value

        return omni

    def interference_free_probability(self, r: float, p: float) -> float:
        """``P_I(r)``: no window of the table sees a transmission."""
        self._check_p(p)
        return self._at_distance(p, 1.0)(r)

    def p_ws_at_distance(self, r: float, p: float) -> float:
        """``P_ws(r) = p * (1-p) * P_I(r)``: success toward a neighbor at
        distance ``r``, normalized to the transmission range (``[0, 1]``).
        """
        self._check_p(p)
        return self._at_distance(p, p * (1.0 - p))(r)

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
        at_distance = self._at_distance(p, p * (1.0 - p))
        value, _abserr = integrate.quad(
            lambda r: 2.0 * r * at_distance(r), 0.0, 1.0, limit=100
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
