"""Unit tests for the phase profiler (injected fake clock throughout)."""

import pytest

from repro.obs.profile import (
    CallbackProfiler,
    PhaseProfiler,
    classify_callback,
    format_callback_profile,
    format_profile,
    wall_clock,
)


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestPhaseProfiler:
    def test_phase_times_the_block(self):
        profiler = PhaseProfiler(clock=FakeClock(step=2.0))
        with profiler.phase("work"):
            pass
        assert profiler.seconds("work") == 2.0
        assert profiler.total_seconds == 2.0

    def test_phases_accumulate_on_reentry(self):
        profiler = PhaseProfiler(clock=FakeClock(step=1.0))
        for _ in range(3):
            with profiler.phase("loop"):
                pass
        (record,) = profiler.phases
        assert record.label == "loop"
        assert record.seconds == 3.0
        assert record.entries == 3

    def test_phase_records_even_when_block_raises(self):
        profiler = PhaseProfiler(clock=FakeClock(step=1.0))
        with pytest.raises(RuntimeError):
            with profiler.phase("boom"):
                raise RuntimeError("x")
        assert profiler.seconds("boom") == 1.0

    def test_phases_keep_first_entered_order(self):
        profiler = PhaseProfiler(clock=FakeClock())
        for label in ("topology gen", "build", "event loop", "build"):
            with profiler.phase(label):
                pass
        assert [r.label for r in profiler.phases] == [
            "topology gen",
            "build",
            "event loop",
        ]

    def test_add_records_external_seconds(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.add("reduce", 0.5)
        profiler.add("reduce", 0.25)
        assert profiler.seconds("reduce") == 0.75

    def test_add_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            PhaseProfiler(clock=FakeClock()).add("x", -1.0)

    def test_rate(self):
        profiler = PhaseProfiler(clock=FakeClock(step=2.0))
        with profiler.phase("event loop"):
            pass
        assert profiler.rate(1000, "event loop") == 500.0
        assert profiler.rate(1000, "never entered") == 0.0

    def test_as_dict_is_json_ready(self):
        profiler = PhaseProfiler(clock=FakeClock(step=1.0))
        with profiler.phase("a"):
            pass
        assert profiler.as_dict() == {"a": 1.0}

    def test_untimed_phase_reads_zero(self):
        assert PhaseProfiler(clock=FakeClock()).seconds("nope") == 0.0


class TestFormatProfile:
    def test_table_has_phases_total_and_rates(self):
        profiler = PhaseProfiler(clock=FakeClock(step=1.0))
        with profiler.phase("event loop"):
            pass
        text = format_profile(profiler, [("events/sec", 5000, "event loop")])
        assert "event loop" in text
        assert "total" in text
        assert "events/sec" in text
        assert "5,000" in text

    def test_empty_profiler_renders_placeholder(self):
        assert "no phases recorded" in format_profile(PhaseProfiler(clock=FakeClock()))


class TestClassifyCallback:
    def test_bound_methods_classify_by_owner_module(self):
        from repro.dessim import Simulator, Timer

        sim = Simulator()
        timer = Timer(sim, "t", lambda: None)
        assert classify_callback(sim.run).startswith("dessim: Simulator.run")
        assert classify_callback(timer.cancel).startswith("dessim: Timer.cancel")

    def test_plain_functions_classify_by_own_module(self):
        from repro.dessim.units import seconds

        assert classify_callback(seconds) == "dessim: seconds"

    def test_unknown_callables_land_in_other(self):
        assert classify_callback(lambda: None).startswith("other: ")
        assert classify_callback([].append).startswith("other: ")


class TestCallbackProfiler:
    def test_dispatch_hook_breaks_down_a_run_by_callback(self):
        """Hooked run: same observable behavior, per-callback buckets."""
        from repro.dessim import Simulator

        sim = Simulator()
        fired = []
        profiler = CallbackProfiler(clock=FakeClock(step=0.5))
        sim.dispatch_hook = profiler
        for delay in (5, 5, 10):
            sim.schedule(delay, fired.append, len(fired))
        sim.run()
        assert len(fired) == 3
        assert sim.events_processed == 3
        records = profiler.records
        assert len(records) == 1  # all three fires share one key
        assert records[0].entries == 3
        assert records[0].seconds == 1.5
        assert profiler.total_seconds == 1.5

    def test_records_sorted_most_expensive_first(self):
        class Slow:
            def cb(self):
                pass

        clock = FakeClock(step=0.0)

        def stepping():
            # 1s for the first callback, 3s for every later one.
            clock.step = 3.0 if clock.now else 1.0
            return clock()

        from repro.dessim import Simulator

        sim = Simulator()
        profiler = CallbackProfiler(clock=stepping)
        sim.dispatch_hook = profiler
        sim.schedule(1, lambda: None)
        sim.schedule(2, Slow().cb)
        sim.run()
        labels = [record.label for record in profiler.records]
        assert labels[0].endswith("Slow.cb")
        assert profiler.as_dict()[labels[0]]["calls"] == 1

    def test_format_renders_table_and_empty_placeholder(self):
        assert "no callbacks dispatched" in format_callback_profile(
            CallbackProfiler(clock=FakeClock())
        )

        from repro.dessim import Simulator

        sim = Simulator()
        profiler = CallbackProfiler(clock=FakeClock(step=1.0))
        sim.dispatch_hook = profiler
        sim.schedule(1, lambda: None)
        sim.run()
        table = format_callback_profile(profiler)
        assert "callback" in table and "total" in table
        assert "100.0%" in table

    def test_hooked_run_matches_plain_run_on_both_engines(self):
        from ..dessim.heap_simulator import ENGINES

        for engine in ("wheel", "heap"):
            traces = []
            for hooked in (False, True):
                sim = ENGINES[engine]()
                trace = []

                def chain(n):
                    trace.append((sim.now, n))
                    if n:
                        sim.schedule(7, chain, n - 1)

                if hooked:
                    sim.dispatch_hook = CallbackProfiler(clock=FakeClock())
                sim.schedule(0, chain, 5)
                sim.schedule(14, trace.append, "tie")
                sim.run()
                traces.append(trace)
            assert traces[0] == traces[1], engine


class TestWallClock:
    def test_is_monotonic_nondecreasing(self):
        a = wall_clock()
        b = wall_clock()
        assert b >= a
