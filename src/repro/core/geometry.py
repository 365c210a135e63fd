"""Planar geometry used by the analytical model.

All functions work in the normalized coordinates of the paper: the
transmission range is ``R = 1`` and areas are normalized by ``pi * R**2``
(so the full hearing disk has normalized area ``1``).

The central quantity is Takagi and Kleinrock's ``q(t)``::

    q(t) = arccos(t) - t * sqrt(1 - t**2)

``2 * R**2 * q(r / (2R))`` is the area of the lens-shaped intersection of
two hearing disks whose centers are ``r`` apart; ``B(r)`` — the region
hidden from the sender but audible to the receiver — follows directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "q_takagi_kleinrock",
    "hidden_area",
    "disk_overlap_area",
    "DrtsDctsAreas",
    "DrtsOctsAreas",
    "drts_dcts_areas",
    "drts_octs_areas",
]


def q_takagi_kleinrock(t: float) -> float:
    """Takagi-Kleinrock helper ``q(t) = arccos(t) - t*sqrt(1 - t^2)``.

    Defined for ``t`` in ``[0, 1]``; decreases from ``pi/2`` at ``t = 0``
    to ``0`` at ``t = 1``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"q(t) is defined on [0, 1], got t={t!r}")
    return math.acos(t) - t * math.sqrt(1.0 - t * t)


def disk_overlap_area(r: float) -> float:
    """Normalized area of the overlap of two unit-radius hearing disks.

    The disk centers are ``r`` apart (``0 <= r <= 1`` after
    normalization).  The physical overlap is ``2 R^2 q(r / 2R)``; divided
    by ``pi R^2`` this is ``2 q(r/2) / pi``.
    """
    if not 0.0 <= r <= 2.0:
        raise ValueError(f"distance r must be in [0, 2], got {r!r}")
    return 2.0 * q_takagi_kleinrock(r / 2.0) / math.pi


def hidden_area(r: float) -> float:
    """Normalized hidden-terminal area ``B(r) / (pi R^2)``.

    ``B(r)`` is the region inside the receiver's hearing disk but outside
    the sender's: ``B(r) = pi R^2 - 2 R^2 q(r / 2R)``, i.e. normalized
    ``1 - 2 q(r/2) / pi``.  Increases from 0 at ``r = 0``.
    """
    return 1.0 - disk_overlap_area(r)


def _omni_area_tuple(r: float) -> tuple[float, float]:
    """The omni schemes' areas, unchecked: the sender's disk and ``B(r)``."""
    return (1.0, hidden_area(r))


@dataclass(frozen=True)
class DrtsDctsAreas:
    """The five-area decomposition around a DRTS-DCTS handshake (Fig. 3).

    All areas are normalized by ``pi R^2``.  Roughly:

    * ``s1`` (Area I): the sender's beam sector — nodes here can collide
      with the initial RTS during a single slot.
    * ``s2`` (Area II): the part of the receiver's "exposed" sector not
      covered by the sender's beam — nodes here must stay quiet toward
      the receiver during the RTS vulnerable period.
    * ``s3`` (Area III): the lens region covered by both hearing disks
      outside both beams — nodes here must not beam at the pair for the
      whole handshake.
    * ``s4`` (Area IV): the receiver-only region (``B(r)``) — dangerous
      while the receiver transmits CTS and ACK.
    * ``s5`` (Area V): the sender-only region — dangerous while the
      sender transmits RTS and data.
    """

    s1: float
    s2: float
    s3: float
    s4: float
    s5: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.s1, self.s2, self.s3, self.s4, self.s5)


def distance_error(r: float) -> ValueError:
    """The error for a sender-receiver distance outside ``[0, 1]``.

    Callers test ``0 <= r <= 1`` inline (it is on the quadrature's hot
    path) and raise this.
    """
    return ValueError(f"distance r must be in [0, 1], got {r!r}")


def _check_area_args(r: float, beamwidth: float) -> None:
    if not 0.0 <= r <= 1.0:
        raise distance_error(r)
    if not 0.0 < beamwidth <= 2 * math.pi:
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {beamwidth!r}")


def _drts_dcts_area_tuple(
    theta: float, r: float
) -> tuple[float, float, float, float, float]:
    """Equation (4) at one point, unchecked: ``(s1, s2, s3, s4, s5)``.

    The scheme integrand calls this once per quadrature point, so it
    builds no result object and clamps inline (``max(0, min(1, x))``).
    """
    two_pi = 2.0 * math.pi
    overlap = disk_overlap_area(r)  # 2 q(r/2) / pi, the lens
    s1 = theta / two_pi
    # tan(theta/2) blows up at theta = pi; treat the triangle correction
    # term as saturated there (the sector fully covers the chord).
    half = theta / 2.0
    if half < math.pi / 2.0:
        tri = (r * r) * math.tan(half) / two_pi
        s2 = max(0.0, min(1.0, s1 - tri))
        raw_s3 = overlap - theta / math.pi + tri
    else:
        s2 = 0.0
        raw_s3 = overlap - theta / math.pi + s1
    s4 = max(0.0, min(1.0, 1.0 - overlap))
    return (s1, s2, max(0.0, min(1.0, raw_s3)), s4, s4)


def drts_dcts_areas(r: float, beamwidth: float) -> DrtsDctsAreas:
    """Evaluate equation (4) of the paper with defensive clamping.

    The raw expressions can stray slightly outside the physically
    meaningful range (and ``tan(theta/2)`` diverges as ``theta`` nears
    ``pi``), so each area is clamped to ``[0, 1]``.  The clamping is the
    limit behaviour the paper's plotted range (``theta <= pi``) implies.

    Args:
        r: normalized sender-receiver distance in ``[0, 1]``.
        beamwidth: antenna beamwidth ``theta`` in radians, ``(0, 2*pi]``.
    """
    _check_area_args(r, beamwidth)
    return DrtsDctsAreas(*_drts_dcts_area_tuple(beamwidth, r))


@dataclass(frozen=True)
class DrtsOctsAreas:
    """The three-area decomposition for DRTS-OCTS (Section 2.3).

    * ``s1`` (Area I): the sender's beam sector.
    * ``s2`` (Area II): everything else within reach — silenced by the
      omni-directional CTS after the RTS vulnerable period.
    * ``s3`` (Area III): the receiver-only hidden region (same as
      Area IV of the DRTS-DCTS picture).
    """

    s1: float
    s2: float
    s3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


def _drts_octs_area_tuple(theta: float, r: float) -> tuple[float, float, float]:
    """The Section 2.3 areas at one point, unchecked: ``(s1, s2, s3)``."""
    s1 = theta / (2.0 * math.pi)
    s2 = max(0.0, min(1.0, 1.0 - s1))
    return (s1, s2, max(0.0, min(1.0, hidden_area(r))))


def drts_octs_areas(r: float, beamwidth: float) -> DrtsOctsAreas:
    """Evaluate the Section 2.3 area decomposition.

    Args:
        r: normalized sender-receiver distance in ``[0, 1]``.
        beamwidth: antenna beamwidth ``theta`` in radians, ``(0, 2*pi]``.
    """
    _check_area_args(r, beamwidth)
    return DrtsOctsAreas(*_drts_octs_area_tuple(beamwidth, r))
