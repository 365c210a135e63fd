"""Tests for the slot-model configuration and torus geometry."""

import math
import random

import pytest

from repro.core import PAPER_PARAMETERS
from repro.slotsim import SlotModelConfig

from .torus import TorusGeometry


def config(**kw):
    defaults = dict(params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.02)
    defaults.update(kw)
    return SlotModelConfig(**defaults)


class TestSlotModelConfig:
    def test_node_count_matches_density(self):
        # K = N * L^2 / (pi R^2) with L = 6R.
        cfg = config()
        assert cfg.node_count == round(3.0 * 36 / math.pi)

    def test_denser_network_more_nodes(self):
        sparse = config()
        dense = config(params=PAPER_PARAMETERS.with_neighbors(8.0))
        assert dense.node_count > sparse.node_count

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            config(scheme="NOPE")

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            config(p=0.0)
        with pytest.raises(ValueError):
            config(p=1.0)

    def test_rejects_small_torus(self):
        with pytest.raises(ValueError):
            config(torus_factor=2.0)


class TestTorusGeometry:
    @pytest.fixture(scope="class")
    def geometry(self):
        return TorusGeometry(config(seed=3), random.Random(3))

    def test_positions_on_torus(self, geometry):
        for x, y in zip(geometry.xs, geometry.ys):
            assert 0.0 <= x < geometry.side
            assert 0.0 <= y < geometry.side

    def test_distance_symmetric(self, geometry):
        for i in range(0, geometry.count, 5):
            for j in range(0, geometry.count, 7):
                if i != j:
                    assert geometry.distance(i, j) == pytest.approx(
                        geometry.distance(j, i)
                    )

    def test_distance_bounded_by_half_diagonal(self, geometry):
        bound = geometry.side * math.sqrt(2) / 2 + 1e-9
        for i in range(geometry.count):
            for j in range(geometry.count):
                if i != j:
                    assert geometry.distance(i, j) <= bound

    def test_wraparound_shortcut(self):
        # Two nodes near opposite edges are close through the wrap.
        cfg = config(seed=0)
        geo = TorusGeometry.__new__(TorusGeometry)
        # Hand-build a 2-node torus to check the minimum image math.
        geo.side = 6.0
        geo.count = 2
        geo.xs = [0.1, 5.9]
        geo.ys = [0.0, 0.0]
        geo._distance = [[0.0] * 2 for _ in range(2)]
        geo._bearing = [[0.0] * 2 for _ in range(2)]
        half = 3.0
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                dx = (geo.xs[j] - geo.xs[i] + half) % 6.0 - half
                dy = (geo.ys[j] - geo.ys[i] + half) % 6.0 - half
                geo._distance[i][j] = math.hypot(dx, dy)
                geo._bearing[i][j] = math.atan2(dy, dx)
        assert geo._distance[0][1] == pytest.approx(0.2)
        # Bearing from node 0 to node 1 goes *west* through the wrap.
        assert abs(geo._bearing[0][1]) == pytest.approx(math.pi)

    def test_neighbors_within_unit_range(self, geometry):
        for i, neighbor_list in enumerate(geometry.neighbors):
            for j in neighbor_list:
                assert geometry.distance(i, j) <= 1.0

    def test_mean_degree_near_n(self, geometry):
        # Expected mean degree is lambda * pi = K * pi / L^2 ~ 3.
        assert 1.5 < geometry.mean_degree() < 4.5

    def test_covers_omni(self, geometry):
        i, j = 0, geometry.neighbors[0][0] if geometry.neighbors[0] else (0, 1)
        if isinstance(j, tuple):
            pytest.skip("no neighbors in this draw")
        assert geometry.covers(i, j, j, 2 * math.pi)

    def test_covers_respects_beam(self):
        geo = TorusGeometry(config(seed=11), random.Random(11))
        # Find a node with two neighbors at very different bearings.
        for i in range(geo.count):
            if len(geo.neighbors[i]) < 2:
                continue
            a, b = geo.neighbors[i][0], geo.neighbors[i][1]
            from repro.phy import angular_distance

            separation = angular_distance(geo.bearing(i, a), geo.bearing(i, b))
            if separation > math.radians(60):
                narrow = math.radians(30)
                assert geo.covers(i, a, a, narrow)
                assert not geo.covers(i, a, b, narrow)
                return
        pytest.skip("no suitable bearing pair in this draw")
