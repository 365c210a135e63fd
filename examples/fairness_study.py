#!/usr/bin/env python3
"""Quantify the Section-4 fairness discussion: BEB starvation.

The paper observes that 802.11's binary exponential backoff "always
favors the node that succeeds last", letting one node monopolize the
channel while its competitors starve — with the imbalance worst when
few nodes contend.  The paper omitted its fairness results for space;
this example regenerates them on a deliberately adversarial scenario:
two saturated sender-receiver pairs whose senders are hidden from each
other but interfere at both receivers (so every loss is a hidden-
terminal loss and the BEB winner keeps winning).

Run:  python examples/fairness_study.py
"""

import math
import random

from repro.dessim import RngRegistry, Simulator, seconds
from repro.mac import DSSS_MAC, DcfMac, NeighborTable, POLICIES
from repro.metrics import jain_index
from repro.net import (
    NetworkSimulation,
    TopologyConfig,
    close_stack,
    generate_ring_topology,
)
from repro.phy import Channel, Position, Radio, UnitDiskPropagation
from repro.traffic import SaturatedCbrSource


def adversarial_pairs(scheme: str, beamwidth_deg: float, seed: int = 0):
    """Two crossed pairs: senders hidden, receivers exposed to both."""
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=300.0))
    rng = RngRegistry(seed)
    positions = {0: (0, 0), 1: (200, 0), 2: (200, 250), 3: (0, 250)}
    macs = {}
    for node_id, (x, y) in positions.items():
        radio = Radio(sim, node_id, Position(x, y), channel)
        macs[node_id] = DcfMac(
            sim, radio, DSSS_MAC, NeighborTable(channel, node_id),
            POLICIES[scheme], beamwidth=math.radians(beamwidth_deg),
            rng=rng.stream(f"mac{node_id}"),
        )
    for sender, receiver in ((0, 1), (2, 3)):
        SaturatedCbrSource(
            sim, macs[sender], [receiver], rng.stream(f"traffic{sender}")
        ).start()
        # start() is deferred to run in NetworkSimulation; here sources
        # enqueue immediately, which is what we want.
    sim.run(until=seconds(5))
    # A hand-wired stack is a web of reference cycles: cut them so the
    # next call's stack does not wait for a full collection.
    close_stack(sim, channel, macs.values())
    return [macs[0].stats.packets_delivered, macs[2].stats.packets_delivered]


def crossed_pairs_study() -> None:
    print("=== Two crossed saturated pairs (hidden senders) ===")
    print(f"{'scheme':10s} {'beam':>6} {'deliveries':>14} {'Jain':>7}")
    for scheme in ("ORTS-OCTS", "DRTS-DCTS"):
        for beamwidth in (30.0, 150.0):
            deliveries = adversarial_pairs(scheme, beamwidth)
            print(
                f"{scheme:10s} {beamwidth:5.0f}d {str(deliveries):>14} "
                f"{jain_index(deliveries):7.3f}"
            )
            if scheme == "ORTS-OCTS":
                break  # beamwidth-independent
    print()


def ring_network_study() -> None:
    print("=== Ring networks: fairness vs density and beamwidth (DRTS-DCTS) ===")
    print(f"{'N':>3} {'beam':>6} {'Jain (mean over topologies)':>28}")
    for n in (3, 8):
        for beamwidth in (30.0, 150.0):
            values = []
            for i in range(2):
                topo = generate_ring_topology(
                    TopologyConfig(n=n), random.Random(500 + 10 * n + i)
                )
                result = NetworkSimulation(
                    topo, "DRTS-DCTS", math.radians(beamwidth), seed=i
                ).run(seconds(2))
                values.append(result.inner_fairness)
            print(f"{n:3d} {beamwidth:5.0f}d {sum(values) / len(values):28.3f}")
    print()
    print("Paper's claims: starvation under BEB; less severe for larger N.")


if __name__ == "__main__":
    crossed_pairs_study()
    ring_network_study()
