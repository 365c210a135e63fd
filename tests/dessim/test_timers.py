"""Tests for restartable timers."""

import pytest

from repro.dessim import SimulationError, Simulator, Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, "t", lambda: fired.append(sim.now))
        timer.start(250)
        sim.run()
        assert fired == [250]

    def test_passes_args(self):
        sim = Simulator()
        got = []
        timer = Timer(sim, "t", lambda a, b: got.append((a, b)))
        timer.start(10, "x", 42)
        sim.run()
        assert got == [("x", 42)]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, "t", lambda: fired.append(True))
        timer.start(100)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_idempotent(self):
        sim = Simulator()
        timer = Timer(sim, "t", lambda: None)
        timer.cancel()
        timer.start(10)
        timer.cancel()
        timer.cancel()
        sim.run()

    def test_restart_supersedes_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, "t", lambda: fired.append(sim.now))
        timer.start(100)
        timer.start(300)  # re-arm before the first expiry
        sim.run()
        assert fired == [300]

    def test_restart_after_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, "t", lambda: fired.append(sim.now))
        timer.start(50)
        sim.run()
        timer.start(50)
        sim.run()
        assert fired == [50, 100]

    def test_pending_lifecycle(self):
        sim = Simulator()
        timer = Timer(sim, "t", lambda: None)
        assert not timer.pending
        timer.start(100)
        assert timer.pending
        assert timer.expiry == 100
        assert timer.remaining == 100
        sim.run()
        assert not timer.pending
        assert timer.expiry is None
        assert timer.remaining is None

    def test_remaining_counts_down(self):
        sim = Simulator()
        timer = Timer(sim, "t", lambda: None)
        timer.start(100)
        sim.run(until=40)
        assert timer.remaining == 60

    def test_negative_delay_rejected(self):
        sim = Simulator()
        timer = Timer(sim, "t", lambda: None)
        with pytest.raises(SimulationError):
            timer.start(-5)

    def test_timer_restart_from_own_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(10)

        timer = Timer(sim, "t", on_fire)
        timer.start(10)
        sim.run()
        assert fired == [10, 20, 30]
