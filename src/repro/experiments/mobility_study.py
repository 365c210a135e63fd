"""Extension study: directional MACs under mobility and stale bearings.

The paper assumes a neighbor protocol with perfect location knowledge
and simulates static topologies; its Section 1 discussion (Ko et al.,
Nasipuri et al.) and Section 5 future work both orbit the question of
what movement does to beam pointing.  This study quantifies it: a
saturated sender beams at a receiver that wanders under random-waypoint
mobility, while the sender's neighbor table refreshes only every ``T``
seconds.  Narrow beams miss a receiver whose bearing has drifted more
than ``theta/2`` since the last refresh; omni transmission is immune.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..dessim.engine import Simulator
from ..dessim.rng import RngRegistry
from ..dessim.units import SECOND
from ..mac.config import DSSS_MAC
from ..mac.dcf import DcfMac
from ..mac.neighbors import SnapshotNeighborTable
from ..mac.policy import POLICIES
from ..net.mobility import RandomWaypointMobility
from ..net.network import close_stack
from ..phy.channel import Channel
from ..phy.propagation import Position, UnitDiskPropagation
from ..phy.radio import Radio
from ..traffic.cbr import SaturatedCbrSource

__all__ = ["MobilityPoint", "run_mobility_study", "format_mobility_table"]


@dataclass(frozen=True)
class MobilityPoint:
    """One (scheme, refresh interval) measurement."""

    scheme: str
    refresh_s: float
    speed_mps: float
    packets_delivered: int
    packets_dropped: int

    @property
    def delivery_ratio(self) -> float:
        total = self.packets_delivered + self.packets_dropped
        if total == 0:
            return 0.0
        return self.packets_delivered / total


def _run_pair(
    scheme: str,
    refresh_ns: int,
    speed_mps: float,
    beamwidth_deg: float,
    sim_time_ns: int,
    seed: int,
):
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=300.0))
    rng = RngRegistry(seed)
    radios = {
        0: Radio(sim, 0, Position(0, 0), channel),
        1: Radio(sim, 1, Position(150, 0), channel),
    }
    macs = {
        nid: DcfMac(
            sim,
            radios[nid],
            DSSS_MAC,
            SnapshotNeighborTable(channel, nid, refresh_ns, sim=sim),
            POLICIES[scheme],
            beamwidth=math.radians(beamwidth_deg),
            rng=rng.stream(f"mac{nid}"),
        )
        for nid in (0, 1)
    }
    RandomWaypointMobility(
        sim,
        radios[1],
        rng.stream("waypoints"),
        speed_mps=speed_mps,
        bounds=(100, -200, 250, 200),
    ).start()
    SaturatedCbrSource(sim, macs[0], [1], rng.stream("traffic")).start()
    try:
        sim.run(until=sim_time_ns)
    finally:
        close_stack(sim, channel, macs.values())
    return macs[0].stats


def run_mobility_study(
    schemes: Sequence[str] = ("ORTS-OCTS", "DRTS-DCTS"),
    refresh_seconds: Sequence[float] = (0.0, 1.0, 3.0),
    speed_mps: float = 25.0,
    beamwidth_deg: float = 15.0,
    sim_time_ns: int = 5 * SECOND,
    seed: int = 11,
) -> list[MobilityPoint]:
    """Sweep neighbor-table refresh intervals per scheme.

    ``refresh_seconds = 0`` is the paper's perfect oracle.
    """
    if any(r < 0 for r in refresh_seconds):
        raise ValueError(f"refresh intervals must be >= 0, got {refresh_seconds!r}")
    points = []
    for scheme in schemes:
        for refresh in refresh_seconds:
            stats = _run_pair(
                scheme,
                round(refresh * SECOND),
                speed_mps,
                beamwidth_deg,
                sim_time_ns,
                seed,
            )
            points.append(
                MobilityPoint(
                    scheme=scheme,
                    refresh_s=refresh,
                    speed_mps=speed_mps,
                    packets_delivered=stats.packets_delivered,
                    packets_dropped=stats.packets_dropped,
                )
            )
    return points


def format_mobility_table(points: Sequence[MobilityPoint]) -> str:
    """Aligned rendering of the mobility sweep."""
    lines = [
        "scheme      refresh(s)  delivered  dropped  delivery-ratio",
        "-" * 58,
    ]
    for pt in points:
        lines.append(
            f"{pt.scheme:10s}  {pt.refresh_s:9.1f}  {pt.packets_delivered:9d}  "
            f"{pt.packets_dropped:7d}  {pt.delivery_ratio:14.3f}"
        )
    return "\n".join(lines)
