"""Equivalence suite: the link-cache fast path vs the naive scan.

The channel's :class:`~repro.phy.LinkCache` is a pure optimisation:
every query it answers must be bit-identical (same values, same order)
to the naive O(N) trig scan it replaces, kept here as the
:class:`~tests.phy.naive_channel.NaiveChannel` oracle, on static
topologies and under mobility with epoch invalidation.  These tests
pin that property, plus a full-stack determinism guard: a complete
:class:`~repro.net.NetworkSimulation` run produces identical results
on the cached and the naive channel.
"""

import math
import random

import repro.net.network as network_module
from repro.dessim import RngRegistry, Simulator, seconds
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.phy import (
    Channel,
    OmniAntenna,
    Position,
    Radio,
    SectorAntenna,
    SinrCaptureReception,
    UnitDiskPropagation,
    UnitDiskReception,
)
from repro.phy.reception import clear_shadowing_memo, sinr

from .conftest import CountingRegistry
from .naive_channel import NaiveChannel

RANGE_M = 300.0


def _paired_worlds(positions, range_m=RANGE_M):
    """Two identical radio fields: one cached channel, one naive."""
    worlds = []
    for channel_cls in (Channel, NaiveChannel):
        sim = Simulator()
        channel = channel_cls(
            sim, propagation=UnitDiskPropagation(range_m=range_m)
        )
        radios = [
            Radio(sim, node_id, pos, channel)
            for node_id, pos in enumerate(positions)
        ]
        worlds.append((channel, radios))
    (cached_channel, cached_radios), (naive_channel, naive_radios) = worlds
    return cached_channel, cached_radios, naive_channel, naive_radios


def _random_positions(rng, count, spread=700.0):
    """A cluster sized so some pairs are in range and some are not."""
    return [
        Position(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        for _ in range(count)
    ]


def _patterns(rng):
    """A sweep of patterns: omni plus beams from sliver to full circle."""
    yield OmniAntenna()
    for beamwidth in (0.05, math.pi / 6, math.pi / 3, math.pi, 2 * math.pi - 1e-9):
        yield SectorAntenna(rng.uniform(-math.pi, math.pi), beamwidth)
    # beamwidth = 2*pi is a SectorAntenna that reports is_omni.
    yield SectorAntenna(rng.uniform(-math.pi, math.pi), 2 * math.pi)


def _assert_equivalent(cached_channel, cached_radios, naive_channel, naive_radios, rng):
    for node_id in range(len(cached_radios)):
        assert cached_channel.neighbors_of(node_id) == naive_channel.neighbors_of(
            node_id
        )
        for pattern in _patterns(rng):
            fast = cached_channel.audible_nodes(cached_radios[node_id], pattern)
            slow = naive_channel.audible_nodes(naive_radios[node_id], pattern)
            assert fast == slow, (node_id, pattern)


def test_audible_sets_identical_on_random_topologies():
    """Cached audible/neighbor sets match the naive scan exactly."""
    for seed in range(8):
        rng = random.Random(seed)
        positions = _random_positions(rng, rng.randint(2, 25))
        _assert_equivalent(*_paired_worlds(positions), rng)


def test_link_geometry_matches_naive_channel():
    """Point-cache Links equal the naive channel's inline computation."""
    rng = random.Random(99)
    positions = _random_positions(rng, 12)
    cached_channel, _, naive_channel, _ = _paired_worlds(positions)
    for src in range(len(positions)):
        for dst in range(len(positions)):
            if src == dst:
                continue
            assert cached_channel.link(src, dst) == naive_channel.link(src, dst)
            # Repeat query is a cache hit and still identical.
            assert cached_channel.link(src, dst) == naive_channel.link(src, dst)


def test_beam_straddling_the_wrap_seam():
    """Targets at bearings near +/-pi survive the sector-bin wrap."""
    positions = [Position(0.0, 0.0)]
    # A fan of nodes hugging the +/-pi seam behind the sender, plus a
    # node exactly at bearing pi and one on each beam edge.
    for offset in (-0.3, -0.1, -1e-9, 0.0, 1e-9, 0.1, 0.3):
        bearing = math.pi + offset
        positions.append(
            Position(100.0 * math.cos(bearing), 100.0 * math.sin(bearing))
        )
    cached_channel, cached_radios, naive_channel, naive_radios = _paired_worlds(
        positions
    )
    for boresight in (math.pi, -math.pi, math.pi - 0.2, -math.pi + 0.2):
        for beamwidth in (0.2, 0.6, math.pi / 2):
            pattern = SectorAntenna(boresight, beamwidth)
            fast = cached_channel.audible_nodes(cached_radios[0], pattern)
            slow = naive_channel.audible_nodes(naive_radios[0], pattern)
            assert fast == slow, (boresight, beamwidth)


def test_equivalence_under_mobility():
    """Moves through Radio.position keep the cache exact.

    Random-waypoint mobility assigns ``radio.position``; the setter
    bumps the node's epoch, so every later query must reflect the new
    geometry — applied identically to a naive world.
    """
    rng = random.Random(4242)
    positions = _random_positions(rng, 15)
    cached_channel, cached_radios, naive_channel, naive_radios = _paired_worlds(
        positions
    )
    cache = cached_channel.cache
    # Warm every row and pair, then churn: move a random subset, check
    # full equivalence, repeat.  Stale cached geometry would surface as
    # a mismatch on the first post-move round.
    _assert_equivalent(cached_channel, cached_radios, naive_channel, naive_radios, rng)
    for _ in range(5):
        movers = rng.sample(range(len(positions)), 4)
        for node_id in movers:
            target = Position(rng.uniform(-700, 700), rng.uniform(-700, 700))
            epoch_before = cache.epoch_of(node_id)
            cached_radios[node_id].position = target
            naive_radios[node_id].position = target
            assert cache.epoch_of(node_id) == epoch_before + 1
        _assert_equivalent(
            cached_channel, cached_radios, naive_channel, naive_radios, rng
        )


def test_move_seq_advances_on_attach_and_move():
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=RANGE_M))
    cache = channel.cache
    assert cache.move_seq == 0
    a = Radio(sim, 0, Position(0, 0), channel)
    Radio(sim, 1, Position(50, 0), channel)
    assert cache.move_seq == 2
    a.position = Position(10, 0)
    assert cache.move_seq == 3
    assert cache.epoch_of(0) == 1
    assert cache.epoch_of(1) == 0


def test_point_cache_reused_across_row_rebuilds():
    """A move rebuilds rows but re-derives only the mover's pairs."""
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=RANGE_M))
    cache = channel.cache
    radios = [
        Radio(sim, i, Position(60.0 * i, 0.0), channel) for i in range(6)
    ]
    for node_id in range(6):
        channel.neighbors_of(node_id)
    warm = cache.cached_pairs()
    assert warm == 6 * 5
    radios[0].position = Position(5.0, 0.0)
    # Requerying one sender's row revalidates that row; pair records
    # between unmoved endpoints are served from cache (the count cannot
    # shrink and grows only by re-derived mover pairs).
    channel.neighbors_of(1)
    assert cache.cached_pairs() == warm


class CountingReception(UnitDiskReception):
    """Unit-disk reception that records every link-budget pair."""

    def __init__(self, range_m=RANGE_M):
        super().__init__(UnitDiskPropagation(range_m=range_m))
        self.calls = []

    def link_budget(self, src_id, dst_id, src, dst):
        self.calls.append((src_id, dst_id))
        return super().link_budget(src_id, dst_id, src, dst)


def test_row_rebuild_budgets_only_the_movers_pairs():
    """After a move, rebuilt rows re-derive only pairs touching the mover.

    Pairs between unmoved nodes are served from the point cache whether
    they are audible (a full Link) or not (a bare epoch stamp).
    """
    rng = random.Random(21)
    positions = _random_positions(rng, 14)
    sim = Simulator()
    reception = CountingReception()
    channel = Channel(sim, reception=reception)
    radios = [Radio(sim, i, pos, channel) for i, pos in enumerate(positions)]
    count = len(radios)
    for node_id in range(count):
        channel.neighbors_of(node_id)
    # A cold fill budgets every ordered pair exactly once.
    assert sorted(reception.calls) == [
        (s, d) for s in range(count) for d in range(count) if s != d
    ]
    unmoved_inaudible = [
        (s, d)
        for s in range(1, count)
        for d in range(1, count)
        if s != d and d not in channel.neighbors_of(s)
    ]
    assert unmoved_inaudible, "the topology must hold inaudible pairs"

    reception.calls.clear()
    radios[0].position = Position(rng.uniform(-700, 700), rng.uniform(-700, 700))
    for node_id in range(count):
        channel.neighbors_of(node_id)
    assert sorted(reception.calls) == sorted(
        [(0, d) for d in range(1, count)] + [(s, 0) for s in range(1, count)]
    )

    # An inaudible pair stamped by a row fill still answers link() with
    # the naive channel's full record.
    naive = NaiveChannel(
        Simulator(), propagation=UnitDiskPropagation(range_m=RANGE_M)
    )
    for node_id, radio in enumerate(radios):
        Radio(naive.sim, node_id, radio.position, naive)
    for src, dst in unmoved_inaudible:
        assert channel.link(src, dst) == naive.link(src, dst)
        assert not channel.link(src, dst).in_range


class CountingSinrReception(SinrCaptureReception):
    """SINR reception that records every pair a row fill budgets."""

    def __init__(self, registry, sigma):
        super().__init__(
            UnitDiskPropagation(range_m=RANGE_M),
            registry,
            shadowing_sigma_db=sigma,
        )
        self.row_pairs = []

    def link_budgets(self, src_id, src, dst_ids, dsts):
        self.row_pairs += [(src_id, dst_id) for dst_id in dst_ids]
        return super().link_budgets(src_id, src, dst_ids, dsts)


def _sinr_fields(positions, registry, sigma):
    """A cached SINR channel (counting row fills) and a naive twin."""
    naive_reception = SinrCaptureReception(
        UnitDiskPropagation(range_m=RANGE_M),
        RngRegistry(registry.master_seed),
        shadowing_sigma_db=sigma,
    )
    fields = []
    for reception, channel_cls in (
        (CountingSinrReception(registry, sigma), Channel),
        (naive_reception, NaiveChannel),
    ):
        sim = Simulator()
        channel = channel_cls(sim, reception=reception)
        radios = [Radio(sim, i, pos, channel) for i, pos in enumerate(positions)]
        fields.append((channel, radios))
    return fields


def _assert_rows_match_per_pair_budgets(cached, naive):
    """Row entries, then every pair's link(), equal the per-pair path."""
    (channel, radios), (naive_channel, naive_radios) = cached, naive
    omni = OmniAntenna()
    for radio, naive_radio in zip(radios, naive_radios):
        row = channel.audible_entries(radio, omni)
        assert row == naive_channel.audible_entries(naive_radio, omni)
    count = len(radios)
    for src in range(count):
        for dst in range(count):
            if src != dst:
                assert channel.link(src, dst) == naive_channel.link(src, dst)


def _sinr_ring_positions():
    topology = generate_ring_topology(
        TopologyConfig(n=8, rings=5), random.Random(5)
    )
    positions = [topology.positions[i] for i in range(len(topology.positions))]
    assert len(positions) == 200
    return positions


def test_sinr_row_fill_matches_per_pair_link_budget():
    """The lean SINR row fill equals per-pair link_budget on every
    ordered pair of a 200-node network, cold and after a move, and a
    move re-budgets only the mover's pairs."""
    clear_shadowing_memo()
    positions = _sinr_ring_positions()
    cached, naive = _sinr_fields(positions, RngRegistry(9), sigma=6.0)
    reception = cached[0].reception
    _assert_rows_match_per_pair_budgets(cached, naive)
    count = len(positions)
    assert sorted(reception.row_pairs) == [
        (s, d) for s in range(count) for d in range(count) if s != d
    ]
    audible = sum(len(cached[0].neighbors_of(s)) for s in range(count))
    assert 0 < audible < count * (count - 1), "needs audible and inaudible pairs"

    reception.row_pairs.clear()
    mover = 17
    for _channel, radios in (cached, naive):
        radios[mover].position = Position(15.0, -40.0)
    _assert_rows_match_per_pair_budgets(cached, naive)
    assert sorted(reception.row_pairs) == sorted(
        [(mover, d) for d in range(count) if d != mover]
        + [(s, mover) for s in range(count) if s != mover]
    )


def test_sinr_row_fill_with_zero_sigma_draws_nothing():
    clear_shadowing_memo()
    registry = CountingRegistry(9)
    cached, naive = _sinr_fields(_sinr_ring_positions(), registry, sigma=0.0)
    _assert_rows_match_per_pair_budgets(cached, naive)
    assert registry.draws == 0
    assert sinr._MEMO.pairs() == 0


def test_neighbors_of_served_from_cache_not_naive_sweep():
    """neighbors_of routes through the LinkCache, not the O(N) sweep.

    Once the sender's row is warm, a repeat query on a static topology
    must not touch the propagation model at all; the naive channel
    pays N-1 reachability checks per query.  This pins the cache
    routing in ``Channel.neighbors_of`` so it cannot silently regress
    to the trig scan.
    """
    calls = {"cached": 0, "naive": 0}

    class CountingPropagation(UnitDiskPropagation):
        label = ""

        def reaches(self, src, dst):
            calls[self.label] += 1
            return super().reaches(src, dst)

    rng = random.Random(13)
    positions = _random_positions(rng, 10)
    worlds = {}
    for label, channel_cls in (("cached", Channel), ("naive", NaiveChannel)):
        propagation = CountingPropagation(range_m=RANGE_M)
        object.__setattr__(propagation, "label", label)  # frozen dataclass
        sim = Simulator()
        channel = channel_cls(sim, propagation=propagation)
        for node_id, pos in enumerate(positions):
            Radio(sim, node_id, pos, channel)
        worlds[label] = channel
    cached_channel, naive_channel = worlds["cached"], worlds["naive"]

    for node_id in range(10):
        assert cached_channel.neighbors_of(node_id) == naive_channel.neighbors_of(
            node_id
        )
    warm_calls = calls["cached"]
    assert calls["naive"] == 10 * 9

    calls["cached"] = calls["naive"] = 0
    for node_id in range(10):
        cached_channel.neighbors_of(node_id)
        naive_channel.neighbors_of(node_id)
    assert calls["cached"] == 0, "warm cache row must not re-run the sweep"
    assert calls["naive"] == 10 * 9
    assert warm_calls <= 10 * 9  # cold build never exceeds the naive cost


def test_full_network_run_identical_with_and_without_cache(monkeypatch):
    """Determinism guard: the fast path changes nothing observable.

    Two complete NetworkSimulation runs over the same topology, scheme,
    and seed — one with the link cache, one on the naive channel — must
    agree on every MAC counter, the kernel event count, and the derived
    figures.
    """
    topology = generate_ring_topology(TopologyConfig(n=3), random.Random(7))
    results = []
    sims = []
    for channel_cls in (Channel, NaiveChannel):
        monkeypatch.setattr(network_module, "Channel", channel_cls)
        net = NetworkSimulation(topology, "DRTS-OCTS", math.pi / 3, seed=11)
        assert type(net.channel) is channel_cls
        results.append(net.run(seconds(0.05)))
        sims.append(net.sim)
    fast, slow = results
    assert fast.stats == slow.stats
    assert fast.inner_ids == slow.inner_ids
    assert fast.inner_throughput_bps == slow.inner_throughput_bps
    assert fast.inner_mean_delay_s == slow.inner_mean_delay_s
    assert fast.inner_collision_ratio == slow.inner_collision_ratio
    assert sims[0].events_processed == sims[1].events_processed
    assert sims[0].now == sims[1].now
