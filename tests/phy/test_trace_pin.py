"""Trace-stream pins for the PHY/MAC signal path.

The full :class:`~repro.dessim.trace.Tracer` record stream of a small
cell — every record's time, layer, node, event and detail, in emission
order — is hashed and pinned.  The stream orders the PHY and MAC
reactions to every signal edge, so it catches a reordering that the
end-of-run counters would average away.  The hashes were captured
before the signal fan-out was coalesced into one event per
transmission edge.  They hold under both event schedulers: the
calendar queue and the heap oracle (``tests/dessim/heap_simulator.py``).
"""

import hashlib
import json
import math

import pytest

import repro.net.network as network_module
from repro.dessim import seconds
from repro.dessim.trace import Tracer
from repro.experiments import replicate_seed, replicate_topology
from repro.net.network import NetworkSimulation
from repro.phy import PhyConfig

from ..dessim.heap_simulator import ENGINES

TRACE_HASHES = {
    "unitdisk": (
        "cde8500465ccb958b366e1deb556ec020e1ba53a2437f4408eaf0dedaa8541c2"
    ),
    "sinr": (
        "525cfb7addbb8492fab9b9fbb5611b7ac8d7422c3865e65cdb290d350b92cc21"
    ),
}


def traced_cell(model, trace=True):
    net = NetworkSimulation(
        replicate_topology(2003, 3, 0),
        "DRTS-OCTS",
        math.radians(90),
        seed=replicate_seed(2003, 3, 0),
        trace=trace,
        phy_config=PhyConfig(model=model),
    )
    result = net.run(seconds(0.05))
    return net, result


def trace_digest(tracer):
    digest = hashlib.sha256()
    for record in tracer:
        line = json.dumps(
            [record.time, record.category, record.node, record.event, record.detail],
            sort_keys=True,
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "model, engine",
    [
        pytest.param(model, engine, id=model if engine == "wheel" else f"{model}-{engine}")
        for engine in ENGINES
        for model in sorted(TRACE_HASHES)
    ],
)
def test_trace_stream_pinned(model, engine, monkeypatch):
    monkeypatch.setattr(network_module, "Simulator", ENGINES[engine])
    net, _ = traced_cell(model)
    assert type(net.sim) is ENGINES[engine]
    assert len(net.tracer) > 1000
    assert trace_digest(net.tracer) == TRACE_HASHES[model]


@pytest.mark.parametrize("model", sorted(TRACE_HASHES))
def test_disabled_tracing_never_enters_record(model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Tracer.record called with tracing off")

    monkeypatch.setattr(Tracer, "record", refuse)
    net, result = traced_cell(model, trace=False)
    assert len(net.tracer) == 0
    assert sum(s.rts_sent for s in result.stats.values()) > 0
