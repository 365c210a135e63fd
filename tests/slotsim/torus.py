"""The scalar engine's torus geometry, and its array form for the batch engine.

:class:`TorusGeometry` places nodes with the scalar test oracle's
:class:`random.Random` and keeps O(K^2) pairwise tables.
:func:`batch_geometry` evaluates its neighbor sets and every coverage
question through :meth:`TorusGeometry.covers` itself and builds the
:class:`~repro.slotsim.BatchGeometry` from them, so a batch run on it
resolves interference exactly as the scalar engine does.
"""

import math
import random

import numpy as np

from repro.slotsim import BatchGeometry, SlotModelConfig


class TorusGeometry:
    """Node placement and minimum-image geometry on a periodic square.

    The range is normalized to ``R = 1``; the torus side is
    ``L = torus_factor``.
    """

    def __init__(self, config: SlotModelConfig, rng: random.Random) -> None:
        self.side = config.torus_factor
        self.count = config.node_count
        self.xs = [rng.random() * self.side for _ in range(self.count)]
        self.ys = [rng.random() * self.side for _ in range(self.count)]
        # Precomputed pairwise minimum-image displacement geometry.
        self._distance: list[list[float]] = [
            [0.0] * self.count for _ in range(self.count)
        ]
        self._bearing: list[list[float]] = [
            [0.0] * self.count for _ in range(self.count)
        ]
        half = self.side / 2.0
        for i in range(self.count):
            for j in range(self.count):
                if i == j:
                    continue
                dx = (self.xs[j] - self.xs[i] + half) % self.side - half
                dy = (self.ys[j] - self.ys[i] + half) % self.side - half
                self._distance[i][j] = math.hypot(dx, dy)
                self._bearing[i][j] = math.atan2(dy, dx)
        self.neighbors: list[list[int]] = [
            [j for j in range(self.count) if j != i and self._distance[i][j] <= 1.0]
            for i in range(self.count)
        ]

    def distance(self, i: int, j: int) -> float:
        """Minimum-image distance between two nodes (R = 1 units)."""
        return self._distance[i][j]

    def bearing(self, i: int, j: int) -> float:
        """Minimum-image bearing from node ``i`` to node ``j``."""
        return self._bearing[i][j]

    def in_range(self, i: int, j: int) -> bool:
        return i != j and self._distance[i][j] <= 1.0

    def covers(
        self, transmitter: int, aimed_at: int, listener: int, beamwidth: float
    ) -> bool:
        """Whether a beam from ``transmitter`` toward ``aimed_at``
        (full width ``beamwidth``) covers ``listener``."""
        if not self.in_range(transmitter, listener):
            return False
        if beamwidth >= 2 * math.pi:
            return True
        delta = abs(
            self._wrap(
                self._bearing[transmitter][listener]
                - self._bearing[transmitter][aimed_at]
            )
        )
        return delta <= beamwidth / 2.0

    @staticmethod
    def _wrap(angle: float) -> float:
        wrapped = math.fmod(angle, 2 * math.pi)
        if wrapped > math.pi:
            wrapped -= 2 * math.pi
        elif wrapped <= -math.pi:
            wrapped += 2 * math.pi
        return wrapped

    def mean_degree(self) -> float:
        """Average neighbor count (should approximate ``N``)."""
        return sum(len(n) for n in self.neighbors) / self.count


def batch_geometry(geo: TorusGeometry, beamwidth: float) -> BatchGeometry:
    """The :class:`BatchGeometry` of ``geo`` with its coverage tensor
    baked for ``beamwidth``."""
    count = geo.count
    degrees = [len(row) for row in geo.neighbors]
    width = max(degrees, default=0) or 1
    nbr = np.full((count, width), -1, dtype=np.int32)
    for i, row in enumerate(geo.neighbors):
        nbr[i, : len(row)] = row
    deg = np.array(degrees, dtype=np.int64)
    cov = np.zeros((count, width, width), dtype=bool)
    for k in range(count):
        row = geo.neighbors[k]
        for a, aimed in enumerate(row):
            for l, listener in enumerate(row):
                cov[k, a, l] = geo.covers(k, aimed, listener, beamwidth)
    return BatchGeometry(geo.side, beamwidth, nbr, deg, cov)
