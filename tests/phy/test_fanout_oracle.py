"""The coalesced signal fan-out against the per-receiver oracle.

:meth:`repro.phy.Channel.transmit` schedules one kernel event per
transmission edge for each run of receivers that share a delay.  The
fixture below is the fan-out it replaced — one start and one end event
per audible receiver — kept here as the oracle.  It runs on the
:class:`~tests.phy.naive_channel.NaiveChannel` scan, so the oracle
shares neither the fan-out nor the link cache with the channel under
test.  Swapping it in must change nothing observable except the
kernel's event count.
"""

import math

import pytest

import repro.net.network as network_module
from repro.dessim import Simulator, microseconds, seconds
from repro.experiments import replicate_seed, replicate_topology
from repro.net.network import NetworkSimulation
from repro.phy import (
    Channel,
    Frame,
    FrameType,
    OmniAntenna,
    PhyConfig,
    Position,
    Radio,
)
from repro.phy.channel import Transmission
from repro.phy.propagation import UnitDiskPropagation

from .conftest import RecordingMac
from .naive_channel import NaiveChannel

SCHEMES = ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
BEAMWIDTHS_DEG = (30, 90, 150)
MODELS = ("unitdisk", "sinr")


def per_receiver_transmit(self, sender, frame, pattern):
    """The oracle: two kernel events per audible receiver."""
    airtime = self.phy.airtime_ns(frame.size_bytes)
    tx = Transmission(
        tx_id=self._next_tx_id,
        sender=sender.node_id,
        frame=frame,
        pattern=pattern,
        start_ns=self.sim.now,
        airtime_ns=airtime,
    )
    self._next_tx_id += 1
    self.stats.record(frame, airtime)
    radios = self._radios
    schedule = self.sim.schedule_anon
    for node_id, _bearing, delay, power in self.audible_entries(sender, pattern):
        radio = radios[node_id]
        schedule(delay, radio.on_signal_start, tx, power)
        schedule(delay + airtime, radio.on_signal_end, tx)
    return tx


class PerReceiverChannel(NaiveChannel):
    """The pre-coalescing, pre-cache channel."""

    transmit = per_receiver_transmit


def run_cell(scheme, beamwidth_deg, model, oracle, monkeypatch):
    """One small traced cell: (result, trace records, kernel events)."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(network_module, "Channel", PerReceiverChannel)
        net = NetworkSimulation(
            replicate_topology(2003, 3, 0),
            scheme,
            math.radians(beamwidth_deg),
            seed=replicate_seed(2003, 3, 0),
            trace=True,
            phy_config=PhyConfig(model=model),
        )
        result = net.run(seconds(0.05))
    return result, list(net.tracer), net.sim.events_processed


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("beamwidth_deg", BEAMWIDTHS_DEG)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_coalesced_fanout_matches_per_receiver_oracle(
    scheme, beamwidth_deg, model, monkeypatch
):
    result, trace, events = run_cell(scheme, beamwidth_deg, model, False, monkeypatch)
    expected, oracle_trace, oracle_events = run_cell(
        scheme, beamwidth_deg, model, True, monkeypatch
    )
    assert result == expected
    assert trace == oracle_trace
    assert sum(s.rts_sent for s in result.stats.values()) > 0
    # Same signals, fewer kernel events to carry them.
    assert events < oracle_events


class SteppedDelayPropagation(UnitDiskPropagation):
    """Test-only: a delay that depends on distance, in two steps.

    Near receivers hear a frame after ``near_ns``, far ones after
    ``far_ns``, so one transmission's receivers split into several runs
    of equal delay.
    """

    near_ns = microseconds(1)
    far_ns = microseconds(2)

    def delay(self, src, dst):
        return self.near_ns if src.distance_to(dst) < 150.0 else self.far_ns


class CollidingDelayPropagation(SteppedDelayPropagation):
    """Far receivers hear an RTS start exactly when near ones hear it end.

    An RTS lasts 272 us, so with these delays one receiver's end edge
    and another's start edge share a timestamp: the case where grouping
    all equal-delay receivers together would reorder the bucket.
    """

    far_ns = microseconds(1 + 272)


@pytest.mark.parametrize(
    "propagation", [SteppedDelayPropagation, CollidingDelayPropagation]
)
@pytest.mark.parametrize("model", MODELS)
def test_distance_dependent_delay_matches_oracle(propagation, model, monkeypatch):
    monkeypatch.setattr(network_module, "UnitDiskPropagation", propagation)
    groups = []
    coalesced_start = Channel.on_signal_start

    def counting_start(self, tx, group):
        groups.append((tx.tx_id, len(group)))
        coalesced_start(self, tx, group)

    with monkeypatch.context() as patch:
        patch.setattr(Channel, "on_signal_start", counting_start)
        result, trace, events = run_cell(
            "DRTS-OCTS", 150, model, False, monkeypatch
        )
    expected, oracle_trace, oracle_events = run_cell(
        "DRTS-OCTS", 150, model, True, monkeypatch
    )
    assert result == expected
    assert trace == oracle_trace
    assert events < oracle_events
    # The grouping really split: some transmissions reached receivers
    # at two delays, and some runs held more than one receiver.
    per_tx = {}
    for tx_id, size in groups:
        per_tx.setdefault(tx_id, []).append(size)
    assert any(len(sizes) > 1 for sizes in per_tx.values())
    assert any(size > 1 for _tx, size in groups)


def test_one_delay_transmission_adds_exactly_two_kernel_events():
    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=300.0))
    sender = Radio(sim, 0, Position(0, 0), channel)
    sender.set_mac(RecordingMac(sim))
    macs = []
    for k in range(1, 6):
        radio = Radio(sim, k, Position(40.0 * k, 10.0), channel)
        macs.append(RecordingMac(sim))
        radio.set_mac(macs[-1])
    frame = Frame(FrameType.RTS, src=0, dst=1, size_bytes=20)
    channel.transmit(sender, frame, OmniAntenna())
    assert sim.pending_events == 2
    sim.run()
    assert sim.events_processed == 2
    for mac in macs:
        assert [f for _t, f in mac.received] == [frame]
        assert mac.busy_edges == [microseconds(1)]


def test_receiver_raising_mid_group_leaves_the_rest_undelivered():
    class Boom(RuntimeError):
        pass

    class RaisingMac(RecordingMac):
        def on_frame_received(self, frame):
            raise Boom

    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=300.0))
    sender = Radio(sim, 0, Position(0, 0), channel)
    sender.set_mac(RecordingMac(sim))
    first = Radio(sim, 1, Position(50, 0), channel)
    first.set_mac(RaisingMac(sim))
    second = Radio(sim, 2, Position(100, 0), channel)
    later = RecordingMac(sim)
    second.set_mac(later)
    channel.transmit(sender, Frame(FrameType.RTS, 0, 1, 20), OmniAntenna())
    with pytest.raises(Boom):
        sim.run()
    assert later.received == []
    assert second.receiver.records  # its end edge never arrived
