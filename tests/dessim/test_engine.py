"""Tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.dessim import SimulationError, Simulator

from .heap_simulator import ENGINES


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0

    def test_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 100

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(300, order.append, 3)
        sim.schedule(100, order.append, 1)
        sim.schedule(200, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule(50, order.append, label)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_zero_delay_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0, fired.append, True)
        sim.run()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_non_integer_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(1.5, lambda: None)

    @pytest.mark.parametrize("scheduler", ["wheel", "heap"])
    def test_bool_delay_rejected(self, scheduler):
        # bool subclasses int, so the old isinstance check let
        # schedule(True, ...) through; a boolean delay is always an
        # upstream bug and must be rejected explicitly.
        sim = ENGINES[scheduler]()
        with pytest.raises(SimulationError):
            sim.schedule(True, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(False, lambda: None)

    @pytest.mark.parametrize("scheduler", ["wheel", "heap"])
    def test_float_delay_rejected(self, scheduler):
        sim = ENGINES[scheduler]()
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(None, 2.5, lambda: None, ())

    def test_events_scheduled_from_callbacks(self):
        sim = Simulator()
        times = []

        def chain(n):
            times.append(sim.now)
            if n > 0:
                sim.schedule(10, chain, n - 1)

        sim.schedule(0, chain, 3)
        sim.run()
        assert times == [0, 10, 20, 30]

    def test_callback_cannot_schedule_into_past(self):
        sim = Simulator()

        def bad():
            sim.schedule_at(sim.now - 1, lambda: None)

        sim.schedule(10, bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(100, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(100, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()

    def test_cancel_from_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(200, fired.append, "later")
        sim.schedule(100, lambda: sim.cancel(later))
        sim.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(10, lambda: None)
        drop = sim.schedule(20, lambda: None)
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert keep is not None


class TestRunUntil:
    def test_clock_advances_to_until(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500

    def test_events_beyond_until_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(100, fired.append, "early")
        sim.schedule(900, fired.append, "late")
        sim.run(until=500)
        assert fired == ["early"]
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(500, fired.append, "edge")
        sim.run(until=500)
        assert fired == ["edge"]

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=50)

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(10, nested)
        sim.run()
        assert len(errors) == 1


class TestInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_clock_is_monotone(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1_000),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_exactly_uncancelled_events_fire(self, spec):
        sim = Simulator()
        fired = []
        expected = 0
        for i, (delay, cancel) in enumerate(spec):
            event = sim.schedule(delay, fired.append, i)
            if cancel:
                sim.cancel(event)
            else:
                expected += 1
        sim.run()
        assert len(fired) == expected
        assert sim.events_processed == expected


class TestPendingCounter:
    """pending_events is a live counter, not a heap rescan."""

    def test_tracks_schedule_and_run(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_direct_event_cancel_decrements(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        event.cancel()  # bypassing Simulator.cancel
        assert sim.pending_events == 1
        event.cancel()  # idempotent: no double decrement
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_late_cancel_after_fire_is_inert(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        keeper = sim.schedule(20, lambda: None)
        sim.run(until=15)
        assert sim.pending_events == 1
        event.cancel()  # already fired; must not decrement again
        assert sim.pending_events == 1
        assert keeper is not None

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.booleans(),
                st.booleans(),
            ),
            max_size=30,
        ),
        st.sampled_from(["wheel", "heap"]),
    )
    def test_counter_matches_structure_scan(self, spec, scheduler):
        sim = ENGINES[scheduler]()
        events = []
        for delay, cancel, double_cancel in spec:
            event = sim.schedule(delay, lambda: None)
            if cancel:
                event.cancel()
            if double_cancel:
                event.cancel()
            events.append(event)
        if scheduler == "heap":
            scan = sum(1 for _, _, ev in sim._queue if not ev.cancelled)
        else:
            # A wheel bucket is a bare Event until a second entry
            # arrives at the same timestamp.
            scan = sum(
                1
                for bucket in sim._buckets.values()
                for ev in (bucket if type(bucket) is list else [bucket])
                if not ev.cancelled
            )
        assert sim.pending_events == scan
        sim.run()
        assert sim.pending_events == 0
