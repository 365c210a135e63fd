"""Tests for the scalar slot-model engine, the batch engine's test oracle."""

import math

import pytest

from repro.core import PAPER_PARAMETERS
from repro.core.params import ProtocolParameters
from repro.slotsim import SlotModelConfig

from .scalar_engine import SlotModelEngine


def run(scheme="ORTS-OCTS", n=3.0, theta_deg=30.0, p=0.02, seed=1, slots=20_000):
    params = PAPER_PARAMETERS.with_neighbors(n).with_beamwidth(
        math.radians(theta_deg)
    )
    engine = SlotModelEngine(
        SlotModelConfig(params=params, scheme=scheme, p=p, seed=seed)
    )
    return engine.run(slots)


class TestPhaseBoundaries:
    def test_timeline_matches_paper(self):
        engine = SlotModelEngine(
            SlotModelConfig(params=PAPER_PARAMETERS, p=0.02)
        )
        assert engine.rts_end == 5
        assert engine.cts_start == 6
        assert engine.cts_end == 11
        assert engine.data_start == 12
        assert engine.data_end == 112
        assert engine.ack_start == 113
        assert engine.ack_end == 118
        assert engine.t_succeed == 119  # l_rts+l_cts+l_data+l_ack+4
        assert engine.t_fail_early == 12  # l_rts+l_cts+2


class TestBasicRuns:
    def test_progress_made(self):
        results = run()
        assert results.initiations > 0
        assert results.successes > 0
        assert results.payload_slots > 0

    def test_deterministic_given_seed(self):
        a = run(seed=9)
        b = run(seed=9)
        assert a.successes == b.successes
        assert a.initiations == b.initiations

    def test_different_seeds_differ(self):
        assert run(seed=1).successes != run(seed=2).successes

    def test_rejects_bad_slots(self):
        engine = SlotModelEngine(SlotModelConfig(params=PAPER_PARAMETERS, p=0.02))
        with pytest.raises(ValueError):
            engine.run(0)

    def test_throughput_in_unit_range(self):
        results = run()
        assert 0.0 <= results.throughput_per_node < 1.0

    def test_success_plus_failure_accounts_for_completions(self):
        results = run()
        assert results.successes + results.failures <= results.initiations


class TestFailureDurations:
    def test_only_two_checkpoint_durations(self):
        # Failures are detected either after the CTS window (12 slots)
        # or at the very end (119 slots) — nothing in between.
        results = run(p=0.05)
        assert set(results.fail_durations) <= {12, 119}

    def test_mean_fail_between_checkpoints(self):
        results = run(p=0.05)
        if results.failures:
            assert 12 <= results.mean_fail_duration <= 119


class TestModelAgreement:
    def test_orts_octs_ignores_beamwidth(self):
        assert (
            run(theta_deg=30.0, seed=4).successes
            == run(theta_deg=150.0, seed=4).successes
        )

    def test_paper_ordering_at_narrow_beamwidth(self):
        """The headline check: the Fig. 5 ordering survives in the
        honestly-simulated model world."""
        results = {
            scheme: run(scheme=scheme, theta_deg=30.0, seed=7, slots=40_000)
            for scheme in ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
        }
        assert (
            results["DRTS-DCTS"].throughput_per_node
            > results["ORTS-OCTS"].throughput_per_node
        )
        assert (
            results["DRTS-OCTS"].throughput_per_node
            > results["ORTS-OCTS"].throughput_per_node
        )

    def test_drts_dcts_narrow_beats_wide(self):
        narrow = run(scheme="DRTS-DCTS", theta_deg=30.0, seed=7, slots=40_000)
        wide = run(scheme="DRTS-DCTS", theta_deg=150.0, seed=7, slots=40_000)
        assert narrow.throughput_per_node > wide.throughput_per_node

    def test_analytical_is_upper_bound(self):
        # Independence assumptions only ever help the closed form.
        from repro.core import OrtsOcts

        results = run(p=0.02, slots=40_000, seed=3)
        analytical = OrtsOcts(PAPER_PARAMETERS.with_neighbors(3.0)).throughput(0.02)
        assert results.throughput_per_node < analytical


def lone_pair_geometry(config):
    """A hand-built two-node world: only each other in range."""
    import math
    import random

    from .torus import TorusGeometry

    geo = TorusGeometry.__new__(TorusGeometry)
    geo.side = config.torus_factor
    geo.count = 2
    geo.xs = [1.0, 1.5]
    geo.ys = [1.0, 1.0]
    geo._distance = [[0.0, 0.5], [0.5, 0.0]]
    geo._bearing = [[0.0, 0.0], [0.0, math.pi]]
    geo.neighbors = [[1], [0]]
    return geo


class TestIsolatedPair:
    def test_lone_pair_mostly_succeeds(self):
        # Two nodes alone in the world: the only failure mode is a
        # simultaneous cross-initiation (both transmit, both deaf).
        # The vulnerable window is the whole RTS (~6 slots): with
        # p = 0.01 the peer cross-initiates within it ~6% of the time.
        params = ProtocolParameters(n_neighbors=2.0)
        config = SlotModelConfig(params=params, p=0.01, torus_factor=3.0, seed=2)
        engine = SlotModelEngine(config, geometry=lone_pair_geometry(config))
        results = engine.run(60_000)
        assert results.initiations > 0
        assert results.success_ratio > 0.8

    def test_lone_pair_failures_are_cross_initiations(self):
        params = ProtocolParameters(n_neighbors=2.0)
        config = SlotModelConfig(params=params, p=0.2, torus_factor=3.0, seed=3)
        engine = SlotModelEngine(config, geometry=lone_pair_geometry(config))
        results = engine.run(20_000)
        # With aggressive p the pair often cross-initiates; every
        # failure is detected at the early (missing-CTS) checkpoint.
        assert results.failures > 0
        assert set(results.fail_durations) == {12}


class TestRunReuse:
    """Regression: run() once silently corrupted a second call —
    ``_engaged``/``_active`` survived while ``now`` restarted at 0, so
    stale handshakes got negative offsets and radiated RTS forever."""

    def test_two_sequential_runs_equal_two_fresh_engines(self):
        config = SlotModelConfig(
            params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.05, seed=13
        )
        engine = SlotModelEngine(config)
        # 500 slots: far more than T_succeed, so handshakes are
        # guaranteed in flight at the cut.
        first = engine.run(500)
        second = engine.run(500)
        fresh = SlotModelEngine(config).run(500)
        for reused in (first, second):
            assert reused.initiations == fresh.initiations
            assert reused.successes == fresh.successes
            assert reused.failures == fresh.failures
            assert reused.payload_slots == fresh.payload_slots
            assert dict(reused.fail_durations) == dict(fresh.fail_durations)

    def test_reuse_clears_in_flight_state(self):
        config = SlotModelConfig(
            params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.2, seed=3
        )
        engine = SlotModelEngine(config)
        engine.run(50)  # shorter than T_succeed: everything in flight
        assert engine._active  # the cut left live handshakes behind
        engine.run(500)
        # No handshake in the second run may predate it.
        assert all(hs.start >= 0 for hs in engine._active)

    def test_payload_slots_integer_exact(self):
        results = run(p=0.05, slots=5_000)
        assert isinstance(results.payload_slots, int)
        assert results.payload_slots == results.successes * 100


class TestActiveListHygiene:
    def test_active_holds_only_live_handshakes(self):
        """Regression guard for the filtered-sweep completion rebuild:
        finished handshakes (``end`` set) never linger in ``_active``,
        and every engaged node maps to a live handshake."""
        params = PAPER_PARAMETERS.with_neighbors(8.0).with_beamwidth(
            math.radians(30)
        )
        engine = SlotModelEngine(
            SlotModelConfig(params=params, p=0.2, seed=7)
        )
        results = engine.run(2_000)
        assert results.initiations > 100  # high p: heavy churn exercised
        assert all(hs.end < 0 for hs in engine._active)
        active_ids = {id(hs) for hs in engine._active}
        assert all(id(hs) in active_ids for hs in engine._engaged.values())

    def test_high_load_counts_consistent(self):
        params = PAPER_PARAMETERS.with_neighbors(8.0)
        results = SlotModelEngine(
            SlotModelConfig(params=params, p=0.3, seed=11)
        ).run(3_000)
        assert results.successes + results.failures <= results.initiations
