"""Hand-built geometries pinning the slot-model's directional physics."""

import math
import random

import pytest

from repro.core import PAPER_PARAMETERS
from repro.slotsim import SlotModelConfig

from .scalar_engine import SlotModelEngine
from .torus import TorusGeometry


def hand_geometry(positions, side=6.0, range_limit=1.0):
    """Build a TorusGeometry from explicit coordinates (R = 1 units)."""
    geo = TorusGeometry.__new__(TorusGeometry)
    geo.side = side
    geo.count = len(positions)
    geo.xs = [p[0] for p in positions]
    geo.ys = [p[1] for p in positions]
    geo._distance = [[0.0] * geo.count for _ in range(geo.count)]
    geo._bearing = [[0.0] * geo.count for _ in range(geo.count)]
    half = side / 2.0
    for i in range(geo.count):
        for j in range(geo.count):
            if i == j:
                continue
            dx = (geo.xs[j] - geo.xs[i] + half) % side - half
            dy = (geo.ys[j] - geo.ys[i] + half) % side - half
            geo._distance[i][j] = math.hypot(dx, dy)
            geo._bearing[i][j] = math.atan2(dy, dx)
    geo.neighbors = [
        [
            j
            for j in range(geo.count)
            if j != i and geo._distance[i][j] <= range_limit
        ]
        for i in range(geo.count)
    ]
    return geo


def engine_for(positions, scheme, theta_deg, p=0.5, seed=1):
    params = PAPER_PARAMETERS.with_neighbors(3.0).with_beamwidth(
        math.radians(theta_deg)
    )
    config = SlotModelConfig(params=params, scheme=scheme, p=p, seed=seed)
    return SlotModelEngine(config, geometry=hand_geometry(positions))


class TestBeamGeometryInSlotSim:
    """Three nodes in a row: 0 at origin, 1 east of it, 2 east of 1.

    Node 2's packets go to node 1 (its only neighbor): its westward
    beam covers node 1 *and* node 0's transmissions to 1 collide there.
    """

    ROW = [(1.0, 1.0), (1.8, 1.0), (2.6, 1.0)]

    def test_cross_interference_under_narrow_beams(self):
        # Both 0 and 2 saturate toward 1 (each other's hidden rival):
        # narrow beams still collide at the shared receiver.
        engine = engine_for(self.ROW, "DRTS-DCTS", 15.0, p=0.3, seed=2)
        results = engine.run(10_000)
        assert results.failures > 0

    def test_perpendicular_beams_do_not_interfere(self):
        # 0 -> 1 along x; far pair 2 -> 3 along x as well, but offset in
        # y beyond any beam: fully parallel operation, so the failure
        # rate matches a lone pair's cross-initiation floor.
        positions = [(1.0, 1.0), (1.8, 1.0), (1.0, 4.0), (1.8, 4.0)]
        engine = engine_for(positions, "DRTS-DCTS", 15.0, p=0.05, seed=3)
        results = engine.run(20_000)
        # Out-of-range pairs cannot corrupt each other; only intra-pair
        # cross-initiations fail, detected at the early checkpoint.
        assert set(results.fail_durations) <= {12}

    def test_omni_couples_the_pairs(self):
        # Same two pairs but at coupling distance in y (0.9 < 1.0):
        # omni transmissions collide across pairs, beams do not.
        positions = [(1.0, 1.0), (1.8, 1.0), (1.0, 1.9), (1.8, 1.9)]
        omni = engine_for(positions, "ORTS-OCTS", 15.0, p=0.05, seed=4)
        beam = engine_for(positions, "DRTS-DCTS", 15.0, p=0.05, seed=4)
        omni_results = omni.run(20_000)
        beam_results = beam.run(20_000)
        assert (
            beam_results.throughput_per_node
            > omni_results.throughput_per_node
        )

    def test_receiver_busy_rejects_second_rts(self):
        # With p high, node 1 is usually mid-handshake when the rival's
        # RTS lands: those attempts fail at the early checkpoint.
        engine = engine_for(self.ROW, "ORTS-OCTS", 15.0, p=0.4, seed=5)
        results = engine.run(5_000)
        assert results.fail_durations.get(12, 0) > 0
