"""A dropped network frees itself by reference counting alone.

A built network ties its simulator, radios, channel, MACs and traffic
into reference cycles (the calendar's events point back at the
simulator, the MAC's timers hold its bound methods, radios and channel
hold each other).  Left alone, only a full cyclic collection frees a
finished cell, so dead cells pile up between collections and set the
peak memory of a campaign.  The network classes cut those cycles when
the network object dies.  These tests run with the cyclic collector
disabled, drop the network, and require that ``gc.collect()`` then
finds nothing — and that what a caller kept (the result, its stats,
the tracer, the metrics) is still intact.
"""

import gc
import math
import weakref

import pytest

from repro.dessim import SimulationError, Simulator, Timer, milliseconds
from repro.dessim.rng import RngRegistry
from repro.experiments.mobility_study import run_mobility_study
from repro.mac import MacStats
from repro.net import (
    MultihopNetworkSimulation,
    NetworkSimulation,
    TopologyConfig,
    generate_ring_topology,
)
from repro.obs import CallbackProfiler, MetricsRegistry
from repro.phy.reception import PhyConfig

from ..dessim.heap_simulator import ENGINES
from .test_multihop import spoke_topology


@pytest.fixture
def no_cyclic_gc():
    """Start from a clean heap and keep the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _topology():
    config = TopologyConfig(n=5, rings=3)
    return generate_ring_topology(config, RngRegistry(3).stream("placement"))


def _single_hop(phy_config, metrics=None):
    net = NetworkSimulation(
        _topology(),
        "DRTS-DCTS",
        math.radians(30),
        seed=4,
        trace=True,
        metrics=metrics,
        phy_config=phy_config,
    )
    profiler = CallbackProfiler()
    net.sim.dispatch_hook = profiler
    return net, profiler


@pytest.mark.parametrize(
    "phy_config", [None, PhyConfig(model="sinr")], ids=["unitdisk", "sinr"]
)
def test_dropped_network_leaves_no_cyclic_garbage(phy_config, no_cyclic_gc):
    # A first cell warms lazy imports, whose own garbage is not ours.
    _single_hop(phy_config)[0].run(milliseconds(5))
    gc.collect()

    metrics = MetricsRegistry()
    net, profiler = _single_hop(phy_config, metrics)
    tracer = net.tracer
    result = net.run(milliseconds(50))
    # Alive, the network is whole: nothing was torn down by run().
    assert net.sim.pending_events > 0
    assert len(net.channel.radios) == len(net.macs)
    assert net.macs[0].service_listeners
    channel = weakref.ref(net.channel)
    mac = weakref.ref(net.macs[0])
    figures = (
        result.inner_throughput_bps,
        result.inner_mean_delay_s,
        result.inner_collision_ratio,
        result.inner_fairness,
        result.inner_packets_delivered,
    )
    trace_len = len(tracer)
    events = metrics.counter("dessim.events").value
    del net

    assert channel() is None
    assert mac() is None
    assert gc.collect() == 0

    # What the caller kept is untouched by the teardown.
    assert all(isinstance(stats, MacStats) for stats in result.stats.values())
    assert sum(stats.packets_delivered for stats in result.stats.values()) > 0
    assert (
        result.inner_throughput_bps,
        result.inner_mean_delay_s,
        result.inner_collision_ratio,
        result.inner_fairness,
        result.inner_packets_delivered,
    ) == figures
    assert len(tracer) == trace_len > 0
    assert any(record.event == "rts-sent" for record in tracer)
    assert metrics.counter("dessim.events").value == events > 0
    assert profiler.as_dict()


def test_dropped_multihop_network_leaves_no_cyclic_garbage(no_cyclic_gc):
    def build(metrics=None):
        return MultihopNetworkSimulation(
            spoke_topology(),
            "DRTS-OCTS",
            math.radians(90),
            seed=7,
            flow_interval_ns=milliseconds(20),
            trace=True,
            metrics=metrics,
        )

    build().run(milliseconds(5))
    gc.collect()

    metrics = MetricsRegistry()
    net = build(metrics)
    tracer = net.tracer
    result = net.run(milliseconds(300))
    channel = weakref.ref(net.channel)
    goodput = result.total_goodput_bps
    del net

    assert channel() is None
    assert gc.collect() == 0
    assert result.total_goodput_bps == goodput > 0
    assert result.packets_delivered_e2e > 0
    assert result.route_totals().originated > 0
    assert len(tracer) > 0


def test_hand_wired_mobility_stack_leaves_no_cyclic_garbage(no_cyclic_gc):
    def study():
        return run_mobility_study(
            schemes=("DRTS-DCTS",),
            refresh_seconds=(1.0,),
            sim_time_ns=milliseconds(50),
        )

    study()
    gc.collect()
    (point,) = study()
    assert gc.collect() == 0
    assert point.packets_delivered > 0


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_closed_simulator_refuses_work(engine):
    sim = ENGINES[engine]()
    fired = []
    timer = Timer(sim, "t", fired.append)
    timer.start(10, "timer")
    sim.schedule(5, fired.append, "event")
    sim.run(until=7)
    sim.close()
    sim.close()  # idempotent
    assert sim.now == 7
    assert sim.events_processed == 1

    with pytest.raises(SimulationError, match="closed"):
        sim.run()
    with pytest.raises(SimulationError, match="closed"):
        sim.schedule(1, fired.append, "late")
    with pytest.raises(SimulationError, match="closed"):
        sim.schedule_at(20, fired.append, "late")
    with pytest.raises(SimulationError, match="closed"):
        sim.schedule_anon(1, fired.append, "late")
    with pytest.raises(SimulationError, match="closed"):
        timer.start(1, "late")
    assert fired == ["event"]


def test_closed_timer_cannot_fire_its_old_callback():
    sim = Simulator()
    fired = []
    timer = Timer(sim, "t", fired.append)
    timer.start(10, "x")
    timer.close()
    timer.close()  # idempotent
    assert not timer.pending
    sim.run()
    assert fired == []
    timer.start(5)
    with pytest.raises(SimulationError, match="timer is closed"):
        sim.run()
