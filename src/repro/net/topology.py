"""Concentric-ring random topologies (Section 4 of the paper).

The paper approximates its 2-D Poisson model with a bounded uniform
layout: given range ``R`` and mean neighbor count ``N``,

* ``N`` nodes go uniformly into the disk of radius ``R``,
* ``3N`` nodes into the ring ``[R, 2R]`` (so the 2R-disk holds 4N),
* ``5N`` nodes into the ring ``[2R, 3R]`` (so the 3R-disk holds 9N),

and only the innermost ``N`` nodes are measured, which the paper shows
makes boundary effects negligible at 3R.  "Extreme" placements are
rejected:

* every inner node must have between ``2`` and ``2N - 2`` neighbors,
* every middle-ring node must have between ``1`` and ``2N - 1``.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..phy.propagation import Position

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    import networkx as nx

__all__ = [
    "TopologyConfig",
    "Topology",
    "TopologyError",
    "generate_ring_topology",
    "generate_connected_ring_topology",
]


class TopologyError(RuntimeError):
    """Raised when no admissible placement is found within the budget."""


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the ring generator.

    Attributes:
        n: mean neighbor count ``N`` (the paper uses 3, 5 and 8).
        range_m: transmission range ``R`` in meters.
        rings: how many ``R``-wide rings to fill (the paper uses 3,
            giving ``(2k-1)N`` nodes in ring ``k`` and ``9N`` total).
        max_attempts: placement retries before giving up.
    """

    n: int = 3
    range_m: float = 300.0
    rings: int = 3
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2 (degree bounds need it), got {self.n}")
        if self.range_m <= 0:
            raise ValueError(f"range_m must be positive, got {self.range_m}")
        if self.rings < 1:
            raise ValueError(f"rings must be >= 1, got {self.rings}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def ring_population(self, ring: int) -> int:
        """Nodes in ring ``ring`` (0-based): ``(2k+1) * N``."""
        if not 0 <= ring < self.rings:
            raise ValueError(f"ring must be in [0, {self.rings}), got {ring}")
        return (2 * ring + 1) * self.n

    @property
    def total_nodes(self) -> int:
        """``rings^2 * N`` nodes overall."""
        return self.rings * self.rings * self.n


@dataclass(frozen=True)
class Topology:
    """An admissible node placement."""

    config: TopologyConfig
    positions: dict[int, Position]
    ring_of: dict[int, int] = field(repr=False)

    @property
    def inner_ids(self) -> list[int]:
        """The measured nodes: those inside the innermost disk."""
        return [nid for nid, ring in self.ring_of.items() if ring == 0]

    def ids_in_ring(self, ring: int) -> list[int]:
        return [nid for nid, r in self.ring_of.items() if r == ring]

    def connectivity_graph(self) -> nx.Graph:
        """The unit-disk graph induced by the transmission range."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.positions)
        ids = sorted(self.positions)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if (
                    self.positions[a].distance_to(self.positions[b])
                    <= self.config.range_m
                ):
                    graph.add_edge(a, b)
        return graph

    def neighbor_count(self, node_id: int) -> int:
        pos = self.positions[node_id]
        return sum(
            1
            for other, other_pos in self.positions.items()
            if other != node_id
            and pos.distance_to(other_pos) <= self.config.range_m
        )


def _uniform_in_annulus(
    rng: random.Random, r_inner: float, r_outer: float
) -> tuple[float, float]:
    """Area-uniform point in the annulus ``[r_inner, r_outer]``."""
    radius = math.sqrt(
        rng.random() * (r_outer**2 - r_inner**2) + r_inner**2
    )
    angle = rng.random() * 2 * math.pi
    return radius * math.cos(angle), radius * math.sin(angle)


def _admissible(topology: Topology) -> bool:
    """The paper's two degree conditions."""
    cfg = topology.config
    for node_id in topology.ids_in_ring(0):
        degree = topology.neighbor_count(node_id)
        if not 2 <= degree <= 2 * cfg.n - 2:
            return False
    if cfg.rings >= 2:
        for node_id in topology.ids_in_ring(1):
            degree = topology.neighbor_count(node_id)
            if not 1 <= degree <= 2 * cfg.n - 1:
                return False
    return True


def generate_ring_topology(
    config: TopologyConfig, rng: random.Random
) -> Topology:
    """Sample placements until one satisfies the degree conditions.

    Raises:
        TopologyError: when ``config.max_attempts`` placements all fail
            the admissibility conditions.
    """
    for _attempt in range(config.max_attempts):
        positions: dict[int, Position] = {}
        ring_of: dict[int, int] = {}
        node_id = 0
        for ring in range(config.rings):
            r_inner = ring * config.range_m
            r_outer = (ring + 1) * config.range_m
            for _ in range(config.ring_population(ring)):
                x, y = _uniform_in_annulus(rng, r_inner, r_outer)
                positions[node_id] = Position(x, y)
                ring_of[node_id] = ring
                node_id += 1
        topology = Topology(config=config, positions=positions, ring_of=ring_of)
        if _admissible(topology):
            return topology
    raise TopologyError(
        f"no admissible topology in {config.max_attempts} attempts for "
        f"N={config.n}, R={config.range_m}"
    )


def generate_connected_ring_topology(
    config: TopologyConfig,
    rng: random.Random,
    *,
    max_resamples: int = 25,
) -> Topology:
    """An admissible placement whose unit-disk graph is connected.

    Multi-hop experiments need every flow destination reachable; the
    paper's degree conditions admit placements whose outer ring still
    fragments.  This wrapper resamples (continuing the same ``rng``
    stream, so the result is a pure function of the stream state) until
    the connectivity graph has a single component.  If ``max_resamples``
    admissible-but-partitioned placements go by, it *warns* and returns
    the last one rather than failing — stranded flows then show up as
    dead-end drops in the routing metrics, not as a crashed campaign.

    Raises:
        TopologyError: propagated from :func:`generate_ring_topology`
            when no admissible placement exists at all.
    """
    import networkx as nx

    if max_resamples < 1:
        raise ValueError(f"max_resamples must be >= 1, got {max_resamples}")
    for _resample in range(max_resamples):
        topology = generate_ring_topology(config, rng)
        if nx.is_connected(topology.connectivity_graph()):
            return topology
    warnings.warn(
        f"no connected topology in {max_resamples} resamples for "
        f"N={config.n}, rings={config.rings}; proceeding with a partitioned "
        "placement (unreachable flows will count as dead-end drops)",
        stacklevel=2,
    )
    return topology
