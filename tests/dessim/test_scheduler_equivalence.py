"""Wheel-vs-heap bit-exactness: the oracle suite for the calendar queue.

The calendar-queue engine (:class:`repro.dessim.Simulator`, "wheel")
claims the exact ``(time, seq)`` determinism contract of the original
binary heap (:class:`~tests.dessim.heap_simulator.HeapSimulator`,
"heap", a test oracle).  These tests hold it to that claim three ways:

* randomized kernel programs — schedule/cancel/restart/anonymous
  interleavings with heavy equal-timestamp ties and ``run(until)``
  horizons, on the wheel's plain loop and on its ``dispatch_hook``
  loop — must produce identical firing traces and identical live
  accounting on both engines;
* a Fig. 6/7-style :class:`~repro.net.NetworkSimulation` cell must
  produce identical results, MacStats, and ChannelStats;
* a campaign run under each scheduler must write byte-identical
  result artifacts (timing sidecars are compared modulo host
  wall-clock fields, which legitimately differ between runs).

Network and campaign runs get the heap by patching the network
module's ``Simulator``; patches do not reach worker processes, so the
campaign runs serially.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.network as network_module
from repro.dessim import Timer
from repro.dessim.units import seconds

from .heap_simulator import ENGINES


def _pass_through(event) -> None:
    event.callback(*event.args)


def _run_program(engine: str, seed: int, horizons: bool, hooked: bool) -> list:
    """Execute a seeded random scheduler workout; return its trace.

    Every decision comes from one seeded RNG consumed in callback
    order, so two engines produce the same trace if and only if they
    fire the same callbacks in the same order at the same times.
    ``hooked`` runs every fire through a pass-through ``dispatch_hook``.
    """
    sim = ENGINES[engine]()
    if hooked:
        sim.dispatch_hook = _pass_through
    rng = random.Random(seed)
    trace: list = []
    handles: list = []
    counter = [0]

    def act() -> None:
        roll = rng.random()
        if roll < 0.3:
            tag = counter[0]
            counter[0] += 1
            handles.append(sim.schedule(rng.randrange(0, 25), fire, tag))
        elif roll < 0.45:
            tag = counter[0]
            counter[0] += 1
            sim.schedule_anon(rng.randrange(0, 25), fire, tag)
        elif roll < 0.6 and handles:
            # Cancel anywhere in history: late cancels must be inert.
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.8:
            timers[rng.randrange(len(timers))].start(rng.randrange(0, 25))
        elif roll < 0.9:
            timers[rng.randrange(len(timers))].cancel()
        # else: do nothing this turn

    def fire(tag: int) -> None:
        trace.append(("fire", tag, sim.now, sim.pending_events))
        for _ in range(rng.randrange(0, 3)):
            act()

    def timer_fired(index: int) -> None:
        trace.append(("timer", index, sim.now, sim.pending_events))
        for _ in range(rng.randrange(0, 3)):
            act()

    timers = [
        Timer(sim, f"t{i}", lambda i=i: timer_fired(i)) for i in range(4)
    ]
    for timer in timers:
        timer.start(rng.randrange(0, 10))
    for _ in range(20):
        act()

    if horizons:
        sim.run(until=40)
        trace.append(("horizon", sim.now, sim.pending_events))
        for _ in range(5):
            act()
        sim.run(until=80)
        trace.append(("horizon", sim.now, sim.pending_events))
    sim.run()
    trace.append(("end", sim.now, sim.events_processed, sim.pending_events))
    assert sim.pending_events == 0
    return trace


class TestKernelPrograms:
    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings_trace_identical(self, seed):
        assert _run_program("wheel", seed, False, False) == _run_program(
            "heap", seed, False, False
        )

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_run_until_horizons_trace_identical(self, seed):
        assert _run_program("wheel", seed, True, False) == _run_program(
            "heap", seed, True, False
        )

    @given(seed=st.integers(0, 10**9), horizons=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_hooked_run_trace_identical(self, seed, horizons):
        # The wheel's profiled loop against the heap oracle's plain one.
        assert _run_program("wheel", seed, horizons, True) == _run_program(
            "heap", seed, horizons, False
        )

    def test_equal_timestamp_fifo_order(self):
        # All at one timestamp: firing order must be schedule order on
        # both engines, interleaved cancellations notwithstanding.
        for engine in ("wheel", "heap"):
            sim = ENGINES[engine]()
            order = []
            handles = [
                sim.schedule(5, order.append, i) for i in range(20)
            ]
            for i in range(0, 20, 3):
                handles[i].cancel()
            sim.run()
            assert order == [i for i in range(20) if i % 3 != 0], engine


class TestNetworkEquivalence:
    """A Fig. 6/7-style cell must not care which engine runs it."""

    def _run_cell(self, engine: str, scheme: str, monkeypatch):
        from repro.dessim.rng import RngRegistry
        from repro.net import (
            NetworkSimulation,
            TopologyConfig,
            generate_ring_topology,
        )

        placement = RngRegistry(41).stream("placement")
        topology = generate_ring_topology(TopologyConfig(n=5), placement)
        monkeypatch.setattr(network_module, "Simulator", ENGINES[engine])
        net = NetworkSimulation(topology, scheme, math.pi / 2, seed=7)
        assert type(net.sim) is ENGINES[engine]
        return net.run(seconds(0.05)), net.channel.stats

    def test_fig_cell_stats_identical(self, monkeypatch):
        for scheme in ("ORTS-OCTS", "DRTS-OCTS"):
            wheel_result, wheel_channel = self._run_cell("wheel", scheme, monkeypatch)
            heap_result, heap_channel = self._run_cell("heap", scheme, monkeypatch)
            assert wheel_result.stats == heap_result.stats, scheme
            assert wheel_channel == heap_channel, scheme
            assert (
                wheel_result.inner_throughput_bps
                == heap_result.inner_throughput_bps
            ), scheme
            assert (
                wheel_result.inner_mean_delay_s == heap_result.inner_mean_delay_s
            ), scheme


class TestCampaignArtifacts:
    def test_campaign_artifacts_byte_identical(self, tmp_path, monkeypatch):
        from repro.experiments import SimStudyConfig
        from repro.experiments.campaign import run_campaign

        config = SimStudyConfig(
            n_values=(3,),
            beamwidths_deg=(90.0,),
            schemes=("ORTS-OCTS", "DRTS-OCTS"),
            topologies=1,
            sim_time_ns=seconds(0.05),
        )
        results = {}
        for engine in ("wheel", "heap"):
            monkeypatch.setattr(network_module, "Simulator", ENGINES[engine])
            directory = tmp_path / engine
            results[engine] = run_campaign(
                config, workers=1, directory=directory
            )
        assert results["wheel"] == results["heap"]

        import json

        wheel_files = sorted(
            p for p in (tmp_path / "wheel").rglob("*") if p.is_file()
        )
        heap_files = sorted(
            p for p in (tmp_path / "heap").rglob("*") if p.is_file()
        )
        names = [p.relative_to(tmp_path / "wheel") for p in wheel_files]
        assert names == [p.relative_to(tmp_path / "heap") for p in heap_files]
        assert any(p.name.startswith("cell-") for p in wheel_files), (
            "campaign wrote no cell artifacts"
        )
        def strip_host_timing(record: dict) -> dict:
            # Wall-clock fields legitimately differ between runs, and
            # dessim.wheel.* counters only exist on the wheel engine;
            # everything else — including dessim.events — must match.
            record = dict(record)
            for key in ("wall_seconds", "events_per_sec", "phases"):
                record.pop(key, None)
            if isinstance(record.get("counters"), dict):
                record["counters"] = {
                    name: value
                    for name, value in record["counters"].items()
                    if not name.startswith("dessim.wheel.")
                }
            return record

        for wheel_file, heap_file in zip(wheel_files, heap_files):
            if wheel_file.name == "campaign.json":
                wheel_manifest = json.loads(wheel_file.read_text())
                heap_manifest = json.loads(heap_file.read_text())
                assert strip_host_timing(
                    wheel_manifest.pop("telemetry", {})
                ) == strip_host_timing(heap_manifest.pop("telemetry", {}))
                assert wheel_manifest == heap_manifest
                continue
            if wheel_file.name in ("telemetry.jsonl", "events.jsonl"):
                # Event lines also carry an epoch timestamp.
                wheel_lines = wheel_file.read_text().splitlines()
                heap_lines = heap_file.read_text().splitlines()
                assert len(wheel_lines) == len(heap_lines)
                for wheel_line, heap_line in zip(wheel_lines, heap_lines):
                    wheel_record = strip_host_timing(json.loads(wheel_line))
                    heap_record = strip_host_timing(json.loads(heap_line))
                    wheel_record.pop("ts", None)
                    heap_record.pop("ts", None)
                    assert wheel_record == heap_record
                continue
            assert wheel_file.read_bytes() == heap_file.read_bytes(), (
                wheel_file.name
            )
