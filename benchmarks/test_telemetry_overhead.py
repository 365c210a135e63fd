"""Benches: telemetry overhead on the instrumented hot paths.

Three timings of the same saturated network cell — no registry (the
pre-telemetry construction), a disabled registry (null instruments),
and a full registry — plus the slotsim equivalent.  The acceptance
criterion for the telemetry subsystem is that the disabled-path
overhead stays in the noise (≤2%); compare the benchmark medians, and
see the perf-gate job for the regression-enforced version.
"""

import math
import random

from repro.core import PAPER_PARAMETERS
from repro.dessim import seconds
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.obs import MetricsRegistry
from repro.slotsim import BatchSlotModelEngine, SlotModelConfig

SIM_SECONDS = 0.5


def _topology():
    return generate_ring_topology(TopologyConfig(n=3), random.Random(7))


def _run_cell(metrics):
    net = NetworkSimulation(_topology(), "ORTS-OCTS", math.pi, seed=5, metrics=metrics)
    result = net.run(seconds(SIM_SECONDS))
    assert result.duration_ns > 0
    return result.inner_packets_delivered


def test_network_cell_no_registry(benchmark):
    """Pre-telemetry construction: metrics=None everywhere."""
    benchmark(_run_cell, None)


def test_network_cell_disabled_registry(benchmark):
    """Null instruments resolved at construction; inc() is a no-op."""
    benchmark(_run_cell, MetricsRegistry(enabled=False))


def test_network_cell_enabled_registry(benchmark):
    """Full harvest + per-transmission counters."""
    benchmark(lambda: _run_cell(MetricsRegistry()))


def test_slotsim_disabled_vs_missing_registry(benchmark):
    """Slot loop with a disabled registry (harvest skipped entirely)."""
    config = SlotModelConfig(
        params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.05, seed=9
    )

    def run():
        engine = BatchSlotModelEngine(config, metrics=MetricsRegistry(enabled=False))
        return engine.run(5_000)[0].initiations

    assert benchmark(run) > 0
