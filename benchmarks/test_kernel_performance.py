"""Benches: raw performance of the simulation substrates.

Unlike the figure-regeneration benches (single-shot pedantic runs),
these are honest multi-round micro-benchmarks of the hot paths: the
event kernel, the radio/channel pair, and a saturated network second.
They exist so performance regressions in the substrate show up as
benchmark deltas rather than as mysteriously slower campaigns.
"""

import math
import random

from repro.dessim import Simulator, seconds
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.slotsim import BatchSlotModelEngine, SlotModelConfig
from repro.core import PAPER_PARAMETERS


def test_event_kernel_throughput(benchmark):
    """Schedule-and-run 20k chained events."""

    def run():
        sim = Simulator()
        count = 0

        def tick(n):
            nonlocal count
            count += 1
            if n > 0:
                sim.schedule(10, tick, n - 1)

        for _ in range(20):
            sim.schedule(0, tick, 999)
        sim.run()
        return count

    assert benchmark(run) == 20_000


def test_timer_churn(benchmark):
    """Start/cancel cycles on a pool of timers (the MAC's hot pattern)."""
    from repro.dessim import Timer

    def run():
        sim = Simulator()
        fired = 0

        def on_fire():
            nonlocal fired
            fired += 1

        timers = [Timer(sim, f"t{i}", on_fire) for i in range(50)]
        for round_no in range(100):
            for timer in timers:
                timer.start(100 + round_no)
            for timer in timers[::2]:
                timer.cancel()
        sim.run()
        return fired

    # Every round's restart supersedes the previous round, so only the
    # final round's 25 surviving (odd-indexed) timers ever fire.
    assert benchmark(run) == 25


def test_saturated_network_second(benchmark):
    """One simulated second of the paper's N=3 saturated network."""
    topology = generate_ring_topology(TopologyConfig(n=3), random.Random(50))

    def run():
        net = NetworkSimulation(topology, "ORTS-OCTS", math.pi, seed=1)
        return net.run(seconds(1)).inner_packets_delivered

    delivered = benchmark(run)
    assert delivered > 0


def test_large_topology_transmit_scan(benchmark):
    """0.2 simulated seconds of a ~200-node directional cell.

    The regime the channel's :class:`~repro.phy.LinkCache` was built
    for: with 200 nodes and 60-degree beams, every transmit resolves
    audibility through the sector index instead of an O(N) trig sweep.
    A regression in the cache hot path (row lookups, sector binning,
    the transmit loop) shows up here before anywhere else.
    """
    from repro.dessim.rng import RngRegistry

    topology = generate_ring_topology(
        TopologyConfig(n=8, rings=5), RngRegistry(7).stream("placement")
    )

    def run():
        net = NetworkSimulation(topology, "DRTS-OCTS", math.pi / 3, seed=1)
        return net.run(seconds(0.2)).inner_packets_delivered

    assert benchmark(run) > 0


def test_mobility_churn_invalidation(benchmark):
    """Saturated ring with wandering nodes: link-cache invalidation.

    Half the nodes move every simulated millisecond, so each step bumps
    a position epoch and forces lazy row rebuilds.  Guards the
    invalidation/rebuild cost the static benches never exercise.
    """
    from repro.dessim.rng import RngRegistry
    from repro.dessim.units import MILLISECOND
    from repro.mac.config import DSSS_MAC
    from repro.mac.dcf import DcfMac
    from repro.mac.neighbors import SnapshotNeighborTable
    from repro.mac.policy import POLICIES
    from repro.net.mobility import RandomWaypointMobility
    from repro.net.network import close_stack
    from repro.phy.channel import Channel
    from repro.phy.propagation import Position, UnitDiskPropagation
    from repro.phy.radio import Radio
    from repro.traffic.cbr import SaturatedCbrSource

    def run():
        sim = Simulator()
        channel = Channel(sim, propagation=UnitDiskPropagation(range_m=250.0))
        rng = RngRegistry(13)
        n = 12
        radios = {
            nid: Radio(
                sim,
                nid,
                Position(
                    150.0 * math.cos(2 * math.pi * nid / n),
                    150.0 * math.sin(2 * math.pi * nid / n),
                ),
                channel,
            )
            for nid in range(n)
        }
        macs = {
            nid: DcfMac(
                sim,
                radios[nid],
                DSSS_MAC,
                SnapshotNeighborTable(channel, nid, 10 * MILLISECOND, sim=sim),
                POLICIES["DRTS-OCTS"],
                beamwidth=math.pi / 3,
                rng=rng.stream(f"mac{nid}"),
            )
            for nid in range(n)
        }
        for nid in range(0, n, 2):
            RandomWaypointMobility(
                sim,
                radios[nid],
                rng.stream(f"waypoints{nid}"),
                speed_mps=50.0,
                bounds=(-250.0, -250.0, 250.0, 250.0),
                step_ns=MILLISECOND,
            ).start()
        for nid in range(n):
            SaturatedCbrSource(
                sim, macs[nid], [(nid + 1) % n], rng.stream(f"traffic{nid}")
            ).start()
        sim.run(until=seconds(0.2))
        assert channel.cache.move_seq > n
        close_stack(sim, channel, macs.values())
        return sim.events_processed

    assert benchmark(run) > 1_000


def test_multihop_medium_relay_plane(benchmark):
    """0.2 simulated seconds of routed flows over a connected cell.

    The full multi-hop stack — greedy geographic routing, per-node
    forwarding agents, flow sources — on the directional MAC.  Guards
    the relay plane (queue handling, payload plumbing, delivery
    listeners), which the single-hop benches never touch.
    """
    from repro.dessim.rng import RngRegistry
    from repro.net import (
        MultihopNetworkSimulation,
        generate_connected_ring_topology,
    )

    topology = generate_connected_ring_topology(
        TopologyConfig(n=5, rings=2), RngRegistry(2).stream("placement")
    )

    def run():
        net = MultihopNetworkSimulation(
            topology, "DRTS-OCTS", math.pi / 2, seed=1
        )
        return net.run(seconds(0.2)).packets_delivered_e2e

    assert benchmark(run) > 0


def test_slotsim_throughput(benchmark):
    """10k slots of the abstract model world."""
    config = SlotModelConfig(
        params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.02, seed=3
    )

    def run():
        return BatchSlotModelEngine(config).run(10_000)[0].initiations

    assert benchmark(run) > 0


def test_slotsim_high_load_churn(benchmark):
    """5k slots at saturation-level p: many concurrent handshakes.

    Guards the batch engine's checkpoint and completion masks, which
    do the most work in this regime, so a regression shows up here
    first.
    """
    config = SlotModelConfig(
        params=PAPER_PARAMETERS.with_neighbors(8.0), p=0.25, seed=7
    )

    def run():
        return BatchSlotModelEngine(config).run(5_000)[0].initiations

    assert benchmark(run) > 1_000
