"""Tests for the SINR/capture reception model (phy/reception/sinr.py).

Deterministic geometry, zero shadowing unless a test wants it:
receiver at the origin, a *close* sender at 50 m and a *far* one at
290 m.  Under the default budget (20 dBm, 40 dB reference loss at 1 m,
exponent 3.0) the close signal lands at about -71 dBm and the far one
at -93.9 dBm — just above the -94 dBm sensitivity floor, and ~23 dB
below the close signal, comfortably past the 10 dB capture threshold.
"""

import math

import pytest

from repro.dessim import Simulator
from repro.dessim.rng import RngRegistry
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.phy import (
    Channel,
    Frame,
    FrameType,
    PhyConfig,
    PhyParameters,
    Position,
    Radio,
    SinrCaptureReception,
    UnitDiskPropagation,
    UnitDiskReception,
)
from repro.phy.reception import clear_shadowing_memo, dbm_to_mw, mw_to_dbm, sinr

from .conftest import CountingRegistry, RecordingMac


def sinr_model(seed=0, **knobs):
    knobs.setdefault("shadowing_sigma_db", 0.0)
    return SinrCaptureReception(
        UnitDiskPropagation(range_m=300.0), RngRegistry(seed), **knobs
    )


def make_net(reception):
    sim = Simulator()
    channel = Channel(sim, reception=reception)

    def node(nid, x, y):
        radio = Radio(sim, nid, Position(x, y), channel)
        mac = RecordingMac(sim)
        radio.set_mac(mac)
        return radio, mac

    return sim, channel, node


def data(src, dst):
    return Frame(FrameType.DATA, src=src, dst=dst, size_bytes=1460)


def rts(src, dst):
    return Frame(FrameType.RTS, src=src, dst=dst, size_bytes=20)


class TestLinkBudget:
    def test_log_distance_path_loss(self):
        model = sinr_model()
        # 20 dBm - (40 + 30*log10(50)) at 50 m.
        expected = 20.0 - (40.0 + 30.0 * math.log10(50.0))
        got = model.rx_power_dbm(1, 2, Position(0, 0), Position(50, 0))
        assert got == pytest.approx(expected)

    def test_distance_clamped_to_reference(self):
        model = sinr_model()
        at_zero = model.rx_power_dbm(1, 2, Position(0, 0), Position(0, 0))
        at_ref = model.rx_power_dbm(1, 2, Position(0, 0), Position(1, 0))
        assert at_zero == at_ref == pytest.approx(20.0 - 40.0)

    def test_sensitivity_cut(self):
        model = sinr_model()
        # -93.9 dBm at 290 m clears the -94 dBm floor; 300 m does not.
        assert model.link_budget(1, 2, Position(0, 0), Position(290, 0))[0]
        assert not model.link_budget(1, 2, Position(0, 0), Position(300, 0))[0]

    def test_budget_power_is_linear_milliwatts(self):
        model = sinr_model()
        audible, power_mw = model.link_budget(
            1, 2, Position(0, 0), Position(50, 0)
        )
        assert audible
        assert mw_to_dbm(power_mw) == pytest.approx(
            model.rx_power_dbm(1, 2, Position(0, 0), Position(50, 0))
        )

    def test_dbm_mw_round_trip(self):
        assert mw_to_dbm(dbm_to_mw(-71.5)) == pytest.approx(-71.5)
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"pathloss_exponent": 0.0},
            {"reference_distance_m": 0.0},
            {"shadowing_sigma_db": -1.0},
            {"sensitivity_dbm": -110.0, "noise_dbm": -104.0},
        ],
    )
    def test_invalid_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            SinrCaptureReception(
                UnitDiskPropagation(range_m=300.0), RngRegistry(0), **knobs
            )


class TestShadowingDeterminism:
    def test_same_seed_same_shadowing(self):
        a = sinr_model(seed=7, shadowing_sigma_db=6.0)
        b = sinr_model(seed=7, shadowing_sigma_db=6.0)
        assert a.shadowing_db(3, 4) == b.shadowing_db(3, 4)

    def test_memoized_and_query_order_independent(self):
        a = sinr_model(seed=7, shadowing_sigma_db=6.0)
        first = a.shadowing_db(1, 2)
        assert a.shadowing_db(1, 2) == first
        # Querying the reverse pair first must not shift the draw.
        b = sinr_model(seed=7, shadowing_sigma_db=6.0)
        b.shadowing_db(2, 1)
        assert b.shadowing_db(1, 2) == first

    def test_zero_sigma_zero_shadow(self):
        assert sinr_model(seed=7).shadowing_db(1, 2) == 0.0

    def test_zero_sigma_draws_nothing(self):
        registry = CountingRegistry(7)
        model = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0), registry, shadowing_sigma_db=0.0
        )
        memo_pairs = sinr._MEMO.pairs()
        for dst in range(2, 12):
            model.link_budget(1, dst, Position(0, 0), Position(10.0 * dst, 0))
        dsts = list(range(2, 12))
        model.link_budgets(1, Position(0, 0), dsts, [Position(10.0 * d, 0) for d in dsts])
        assert registry.draws == 0
        assert registry._streams == {}
        assert sinr._MEMO.pairs() == memo_pairs

    def test_directions_shadow_independently(self):
        model = sinr_model(seed=7, shadowing_sigma_db=6.0)
        assert model.shadowing_db(1, 2) != model.shadowing_db(2, 1)

    def test_draw_is_first_gaussian_of_the_pair_stream(self):
        # The documented derivation, pinned: sigma times the first unit
        # gaussian of the registry's shadow-{src}-{dst} stream.
        model = sinr_model(seed=7, shadowing_sigma_db=6.0)
        for src, dst in ((1, 2), (2, 1), (0, 199), (37, 5)):
            stream = RngRegistry(7).stream(f"shadow-{src}-{dst}")
            assert model.shadowing_db(src, dst) == stream.gauss(0.0, 1.0) * 6.0

    def test_built_network_keeps_no_shadow_streams(self):
        clear_shadowing_memo()
        placement = RngRegistry(7).stream("placement")
        topology = generate_ring_topology(TopologyConfig(n=8, rings=5), placement)
        assert len(topology.positions) == 200
        net = NetworkSimulation(
            topology,
            "DRTS-OCTS",
            math.pi / 3,
            seed=1,
            phy_config=PhyConfig(model="sinr"),
        )
        # The first row fill shadowed the whole 200 x 200 square (the
        # diagonal too) into the seed's memo map, yet no stream was
        # kept for any pair.
        draws = net.channel.reception._unit_draws
        assert draws is sinr._MEMO.draws_for(net.rng.master_seed)
        assert len(draws) == 200 * 200
        assert not any(math.isnan(draw) for draw in draws)
        names = list(net.rng._streams)
        assert names, "the MACs and sources still draw from named streams"
        assert not [name for name in names if name.startswith("shadow-")]


class TestShadowingMemo:
    """The per-process, per-seed memo of unit shadowing draws."""

    PAIRS = ((1, 2), (2, 1), (0, 199), (37, 5), (5, 5), (12, 0))

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        clear_shadowing_memo()
        yield
        clear_shadowing_memo()

    def counted(self, seed, sigma=6.0):
        registry = CountingRegistry(seed)
        model = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0),
            registry,
            shadowing_sigma_db=sigma,
        )
        return model, registry

    def test_memo_served_draws_equal_the_pair_streams(self):
        cold, cold_registry = self.counted(7)
        first = [cold.shadowing_db(src, dst) for src, dst in self.PAIRS]
        # (1, 2) drew the square of ids 0..2 and (0, 199) the shells
        # on up to 199, each in one bulk call.
        assert cold_registry.draws == 200 * 200
        assert cold_registry.bulk_calls == 2
        warm, warm_registry = self.counted(7)
        for (src, dst), value in zip(self.PAIRS, first):
            unit = RngRegistry(7).stream(f"shadow-{src}-{dst}").gauss(0.0, 1.0)
            assert warm.shadowing_db(src, dst) == value == unit * 6.0
        assert warm_registry.draws == 0, "every draw came from the memo"

    def test_sigmas_on_one_seed_scale_one_unit_draw(self):
        wide, _ = self.counted(7, sigma=6.0)
        narrow, narrow_registry = self.counted(7, sigma=2.5)
        assert narrow._unit_draws is wide._unit_draws
        for src, dst in self.PAIRS:
            unit = RngRegistry(7).stream(f"shadow-{src}-{dst}").gauss(0.0, 1.0)
            assert wide.shadowing_db(src, dst) == unit * 6.0
            assert narrow.shadowing_db(src, dst) == unit * 2.5
        assert narrow_registry.draws == 0

    def test_seeds_keep_separate_maps(self):
        a, _ = self.counted(7)
        b, b_registry = self.counted(8)
        assert a.shadowing_db(1, 2) != b.shadowing_db(1, 2)
        assert b_registry.draws == 3 * 3
        expected = RngRegistry(8).stream("shadow-1-2").gauss(0.0, 1.0) * 6.0
        assert b.shadowing_db(1, 2) == expected

    def test_negative_ids_are_drawn_not_memoized(self):
        model, registry = self.counted(7)
        unit = RngRegistry(7).stream("shadow--1-2").gauss(0.0, 1.0)
        assert model.shadowing_db(-1, 2) == unit * 6.0
        assert model.shadowing_db(-1, 2) == unit * 6.0
        assert registry.draws == 2
        assert sinr._MEMO.pairs() == 0

    def test_pair_slots_tile_each_shell(self):
        for m in range(6):
            slots = sorted(
                sinr._pair_slot(src, dst)
                for src in range(m + 1)
                for dst in range(m + 1)
                if max(src, dst) == m
            )
            assert slots == list(range(m * m, (m + 1) ** 2))

    def test_eviction_keeps_the_bound(self, monkeypatch):
        monkeypatch.setattr(sinr._MEMO, "max_pairs", 100)
        pairs = [(src, dst) for src in range(7) for dst in range(7) if src != dst]
        for seed in range(6):
            model, _ = self.counted(seed)
            for src, dst in pairs:
                model.shadowing_db(src, dst)
            assert sinr._MEMO.pairs() <= 100
        # Two 49-slot maps fit: the newest seeds stay, the oldest went.
        assert sorted(sinr._MEMO._maps) == [4, 5]
        warm, warm_registry = self.counted(5)
        evicted, evicted_registry = self.counted(0)
        for src, dst in pairs:
            unit = RngRegistry(0).stream(f"shadow-{src}-{dst}").gauss(0.0, 1.0)
            assert evicted.shadowing_db(src, dst) == unit * 6.0
            warm.shadowing_db(src, dst)
        assert warm_registry.draws == 0
        assert evicted_registry.draws == 7 * 7
        assert sinr._MEMO.pairs() <= 100

    def test_map_larger_than_the_bound_is_not_stored(self, monkeypatch):
        monkeypatch.setattr(sinr._MEMO, "max_pairs", 100)
        model, registry = self.counted(3)
        unit = RngRegistry(3).stream("shadow-20-1").gauss(0.0, 1.0)
        assert model.shadowing_db(20, 1) == unit * 6.0
        assert model.shadowing_db(20, 1) == unit * 6.0
        assert registry.draws == 2
        # A row past the bound is drawn in bulk on every fill.
        src, dst = Position(0, 0), Position(120, 0)
        expected = model.link_budget(20, 1, src, dst)
        assert model.link_budgets(20, src, [1], [dst]) == [expected]
        assert registry.draws == 4
        assert registry.bulk_calls == 1
        assert sinr._MEMO.pairs() <= 100

    def test_guard_fires_on_a_memo_hit(self):
        warm, _ = self.counted(3)
        warm.shadowing_db(1, 2)
        registry = RngRegistry(3)
        registry.stream("shadow-1-2")
        model = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0), registry, shadowing_sigma_db=6.0
        )
        assert model._unit_draws[sinr._pair_slot(1, 2)] == warm.shadowing_db(
            1, 2
        ) / 6.0
        origin, spots = Position(0, 0), [Position(50, 0), Position(0, 50)]
        with pytest.raises(ValueError, match="already in use"):
            model.link_budgets(1, origin, [0, 2], spots)
        with pytest.raises(ValueError, match="already in use"):
            model.shadowing_db(1, 2)
        # Rows without the streamed pair are served from the memo.
        model.link_budgets(2, origin, [0, 1], spots)
        model.link_budgets(0, origin, [1, 2], spots)
        # A stream handed out after earlier row fills is caught too.
        registry.stream("shadow-2-0")
        with pytest.raises(ValueError, match="shadow-2-0"):
            model.link_budgets(2, origin, [0, 1], spots)

    def test_guard_fires_before_a_bulk_draw(self):
        registry = RngRegistry(3)
        registry.stream("shadow-2-0")
        model = SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0), registry, shadowing_sigma_db=6.0
        )
        # The row needs (0, 1) and (0, 2), but its fill would draw the
        # whole square of ids 0..2, the streamed pair included.
        origin, spots = Position(0, 0), [Position(50, 0), Position(0, 50)]
        with pytest.raises(ValueError, match="shadow-2-0"):
            model.link_budgets(0, origin, [1, 2], spots)
        assert len(model._unit_draws) == 0, "a map holds whole shells only"

    def test_row_fill_draws_whole_shells_of_the_pair_streams(self):
        model, registry = self.counted(7)
        origin = Position(0, 0)
        others = [dst for dst in range(12) if dst != 5]
        spots = [Position(20.0 * dst, 0) for dst in others]
        model.link_budgets(5, origin, others, spots)
        assert (registry.bulk_calls, registry.draws) == (1, 12 * 12)
        draws = model._unit_draws
        assert len(draws) == 12 * 12
        for src in range(12):
            for dst in range(12):
                stream = RngRegistry(7).stream(f"shadow-{src}-{dst}")
                assert draws[sinr._pair_slot(src, dst)] == stream.gauss(0.0, 1.0)
        # A larger id grows the map by the missing shells only.
        model.link_budgets(14, origin, [0, 3], spots[:2])
        assert (registry.bulk_calls, registry.draws) == (2, 15 * 15)
        model.link_budgets(3, origin, [14, 0], spots[:2])
        assert (registry.bulk_calls, registry.draws) == (2, 15 * 15)

    def test_cell_order_and_memo_state_do_not_change_results(self):
        # The nine (scheme, theta) cells of one replicate share its
        # seed, so after the first cell every build is a memo hit.
        placement = RngRegistry(11).stream("placement")
        topology = generate_ring_topology(TopologyConfig(n=5, rings=2), placement)
        cells = [
            (scheme, math.radians(theta))
            for scheme in ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
            for theta in (30.0, 90.0, 150.0)
        ]

        def run(scheme, beamwidth):
            net = NetworkSimulation(
                topology,
                scheme,
                beamwidth,
                seed=5,
                phy_config=PhyConfig(model="sinr"),
            )
            return net.run(10_000_000)

        forward = [run(*cell) for cell in cells]
        backward = [run(*cell) for cell in reversed(cells)][::-1]
        cold = []
        for cell in cells:
            clear_shadowing_memo()
            cold.append(run(*cell))
        assert forward == backward == cold
        assert sum(result.frames_captured for result in forward) > 0


class TestAsymmetricLink:
    """The classic hidden-terminal ingredient the unit-disk model
    cannot express: A hears B, B cannot hear A."""

    # Pinned by search: under registry seed 1, the 280 m pair (1, 2)
    # shadows +2.6 dB forward and -6.8 dB backward across the -94 dBm
    # floor.
    SEED = 1
    DISTANCE = 280.0

    def model(self):
        return SinrCaptureReception(
            UnitDiskPropagation(range_m=300.0), RngRegistry(self.SEED)
        )

    def test_budget_is_directional(self):
        model = self.model()
        a, b = Position(0, 0), Position(self.DISTANCE, 0)
        assert model.link_budget(1, 2, a, b)[0]
        assert not model.link_budget(2, 1, b, a)[0]

    def test_frames_flow_one_way_only(self):
        sim, _ch, node = make_net(self.model())
        a, mac_a = node(1, 0, 0)
        b, mac_b = node(2, self.DISTANCE, 0)
        a.transmit(data(1, 2))
        sim.run()
        assert [f.src for _, f in mac_b.received] == [1]
        b.transmit(data(2, 1))
        sim.run()
        # The reverse signal is below sensitivity: A never even hears
        # a busy edge, let alone the frame.
        assert mac_a.received == []
        assert mac_a.failures == []


class TestCaptureRescue:
    """An overlap the unit-disk model corrupts is delivered under SINR."""

    def test_strong_frame_survives_weak_overlap(self):
        sim, channel, node = make_net(sinr_model())
        _rx, mac_rx = node(0, 0, 0)
        close, _ = node(1, 50, 0)
        far, _ = node(2, 290, 0)
        close.transmit(data(1, 0))
        sim.schedule(1_000_000, far.transmit, rts(2, 0))
        sim.run()
        assert [f.ftype for _, f in mac_rx.received] == [FrameType.DATA]
        assert channel.radios[0].receiver.captures == 1

    def test_same_overlap_corrupts_under_unit_disk(self):
        reception = UnitDiskReception(
            UnitDiskPropagation(range_m=300.0), capture_threshold=None
        )
        sim, channel, node = make_net(reception)
        _rx, mac_rx = node(0, 0, 0)
        close, _ = node(1, 50, 0)
        far, _ = node(2, 290, 0)
        close.transmit(data(1, 0))
        sim.schedule(1_000_000, far.transmit, rts(2, 0))
        sim.run()
        assert mac_rx.received == []
        assert channel.radios[0].receiver.captures == 0

    def test_weak_frame_dies_mid_air(self):
        sim, channel, node = make_net(sinr_model())
        _rx, mac_rx = node(0, 0, 0)
        far, _ = node(2, 290, 0)
        close, _ = node(1, 50, 0)
        far.transmit(data(2, 0))
        sim.schedule(1_000_000, close.transmit, rts(1, 0))
        sim.run()
        # The far DATA was being decoded, then the close interferer
        # crushed its SINR mid-air: a reception failure, counted.
        assert all(f.ftype is not FrameType.DATA for _, f in mac_rx.received)
        assert channel.radios[0].receiver.sinr_drops == 1
        assert mac_rx.failures

    def test_sub_threshold_signal_never_locks(self):
        # 20 dB capture over a -104 dBm floor needs -84 dBm; 290 m
        # delivers only -93.9 dBm, so the receiver never locks on.
        sim, channel, node = make_net(sinr_model(capture_threshold_db=20.0))
        _rx, mac_rx = node(0, 0, 0)
        far, _ = node(2, 290, 0)
        far.transmit(data(2, 0))
        sim.run()
        assert mac_rx.received == []
        assert mac_rx.failures == []


class TestPhyConfig:
    def test_default_is_unit_disk(self):
        model = PhyConfig().build(
            UnitDiskPropagation(range_m=300.0), PhyParameters(), RngRegistry(0)
        )
        assert isinstance(model, UnitDiskReception)
        assert model.capture_threshold is None

    def test_sinr_model_gets_all_knobs(self):
        cfg = PhyConfig(model="sinr", capture_threshold_db=3.0,
                        shadowing_sigma_db=0.0)
        model = cfg.build(
            UnitDiskPropagation(range_m=300.0), PhyParameters(), RngRegistry(0)
        )
        assert isinstance(model, SinrCaptureReception)
        assert model.capture_threshold_db == 3.0
        assert model.shadowing_sigma_db == 0.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown reception model"):
            PhyConfig(model="raytrace")
