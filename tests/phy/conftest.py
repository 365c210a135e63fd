"""Shared fixtures for PHY-layer tests."""

from dataclasses import dataclass, field

import pytest

from repro.dessim import RngRegistry, Simulator
from repro.phy import Channel, Frame, Position, Radio, UnitDiskPropagation


class CountingRegistry(RngRegistry):
    """A registry that counts one-shot draws, single and bulk."""

    def __init__(self, master_seed):
        super().__init__(master_seed)
        self.draws = 0
        self.bulk_calls = 0

    def gauss_once(self, name):
        self.draws += 1
        return super().gauss_once(name)

    def gauss_many(self, names):
        values = super().gauss_many(names)
        self.draws += len(values)
        self.bulk_calls += 1
        return values


@dataclass
class RecordingMac:
    """A MAC stub that records every radio event with its timestamp."""

    sim: Simulator
    received: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    busy_edges: list = field(default_factory=list)
    idle_edges: list = field(default_factory=list)
    tx_completions: list = field(default_factory=list)

    def on_frame_received(self, frame: Frame) -> None:
        self.received.append((self.sim.now, frame))

    def on_reception_failed(self) -> None:
        self.failures.append(self.sim.now)

    def on_medium_busy(self) -> None:
        self.busy_edges.append(self.sim.now)

    def on_medium_idle(self) -> None:
        self.idle_edges.append(self.sim.now)

    def on_transmit_complete(self, frame: Frame) -> None:
        self.tx_completions.append((self.sim.now, frame))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def channel(sim):
    # Range 300 m, Table-1 PHY.
    return Channel(sim, propagation=UnitDiskPropagation(range_m=300.0))


def make_node(sim, channel, node_id, x, y):
    """Create a radio + recording MAC at the given position."""
    radio = Radio(sim, node_id, Position(x, y), channel)
    mac = RecordingMac(sim)
    radio.set_mac(mac)
    return radio, mac
