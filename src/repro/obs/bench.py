"""The telemetry benchmark harness behind the CI perf gate.

Runs a small fixed suite over the simulation substrates — the dessim
event kernel, the slotsim Monte-Carlo loop (one replicate on a small
torus, and a batch at ~10^4 nodes), a saturated network cell,
a ~200-node directional cell (the link-cache transmit scan), the same
cell under SINR/capture reception (the reception-subsystem hot path),
a mobility-churn case (link-cache invalidation), a routed
multi-hop cell (the relay plane), and one Fig. 5 point of the
analytical model (quadrature and Monte-Carlo sampler) — and writes a
schema-versioned ``BENCH_telemetry.json`` snapshot.  ``--check`` compares the snapshot against a committed
baseline (``benchmarks/baselines/bench_baseline.json``) and exits
non-zero on a >tolerance regression; that exit code *is* the CI
``perf-gate`` job.

Hardware normalization
======================

Raw events/sec differ wildly between a laptop and a CI runner, so the
gate compares *calibrated scores*: every rate is multiplied by the wall
time of a fixed pure-Python calibration loop measured in the same
process.  A score is therefore "simulated events per calibration
quantum" — roughly machine-independent, so a committed baseline
transfers across hosts while a genuine hot-path regression still moves
it.  Cell wall time is gated the same way (``wall / calibration``).

Invoke as ``python benchmarks/telemetry_harness.py`` (thin wrapper) or
``python -m repro.obs.bench``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import random
import sys
from typing import Callable, Sequence

from .metrics import MetricsRegistry
from .profile import wall_clock

__all__ = [
    "BENCH_FORMAT",
    "BASELINE_FORMAT",
    "DEFAULT_TOLERANCE",
    "run_suite",
    "baseline_from_payload",
    "compare_to_baseline",
    "main",
]

BENCH_FORMAT = "repro-bench-v1"
BASELINE_FORMAT = "repro-bench-baseline-v1"

#: Default allowed relative regression before the gate fails (30%).
DEFAULT_TOLERANCE = 0.30

#: Iterations of the pure-Python calibration loop (fixed forever: the
#: committed baseline's scores are denominated in this quantum).
_CALIBRATION_ITERATIONS = 200_000


def _calibration_workload() -> float:
    total = 0.0
    for i in range(_CALIBRATION_ITERATIONS):
        total += math.sqrt(i % 1024 + 1)
    return total


def calibration_seconds(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of the fixed calibration loop."""
    best = math.inf
    for _ in range(repeats):
        start = wall_clock()
        _calibration_workload()
        best = min(best, wall_clock() - start)
    return best


def _paired_calibration() -> float:
    """One calibration sample taken adjacent to a case run.

    Pairing matters: measuring calibration once up front and cases
    later lets a mid-suite frequency/load shift move them in opposite
    directions, which reads as a phantom regression.  Sampling the
    quantum immediately before each case repeat makes every score a
    ratio of two measurements under the same conditions.
    """
    start = wall_clock()
    _calibration_workload()
    return wall_clock() - start


# ----------------------------------------------------------------------
# The cases.  Each returns (work_count, result_sanity) and is timed by
# the driver; counts are events for dessim/network, slots for slotsim.
# ----------------------------------------------------------------------


def _case_event_kernel(chains: int, depth: int) -> int:
    from ..dessim import Simulator

    sim = Simulator()
    count = 0

    def tick(n: int) -> None:
        nonlocal count
        count += 1
        if n > 0:
            sim.schedule(10, tick, n - 1)

    for _ in range(chains):
        sim.schedule(0, tick, depth - 1)
    sim.run()
    assert count == chains * depth
    return count


def _case_timer_churn(restarts: int) -> int:
    """Timer start/cancel/restart churn: the zero-garbage-cancel bench.

    A bank of timers is restarted long before expiry, so nearly every
    start supersedes a still-pending event — the tombstone path — while
    a driver timer re-arms from its own callback each round (the
    reuse-in-place path).  The case moves when scheduling,
    cancellation, or reschedule cost regresses; the final drain keeps
    bucket reclamation in the measurement.  Work unit: start
    operations.
    """
    from ..dessim import Simulator, Timer

    sim = Simulator()

    def ignore() -> None:
        return None

    bank = [Timer(sim, f"churn{i}", ignore) for i in range(8)]
    ops = 0

    def drive() -> None:
        nonlocal ops
        if ops >= restarts:
            return
        for timer in bank:
            # Far expiry, restarted every round: always superseded.
            timer.start(50_000)
            ops += 1
        driver.start(1_000)

    driver = Timer(sim, "churn-driver", drive)
    driver.start(0)
    sim.run()
    assert sim.pending_events == 0
    return ops


def _case_slotsim(slots: int) -> int:
    """One replicate of the batch slot engine on the default torus: the
    per-slot overhead of the array program at small node counts."""
    from ..core import PAPER_PARAMETERS
    from ..slotsim import BatchSlotModelEngine, SlotModelConfig

    config = SlotModelConfig(
        params=PAPER_PARAMETERS.with_neighbors(3.0), p=0.02, seed=3
    )
    (results,) = BatchSlotModelEngine(config, batch=1).run(slots)
    assert results.initiations > 0
    return slots


def _case_slotsim_batch(slots: int, batch: int = 2) -> int:
    """Vectorized slot engine at the 10^4-node scale.

    Same protocol world as ``slotsim_loop`` (N=3, p=0.02) on a torus
    large enough for ~10^4 nodes, advanced ``batch`` replicates at a
    time by :class:`~repro.slotsim.batch.BatchSlotModelEngine`.  The
    work unit is **node-slots** (``slots * batch * node_count``), not
    slots: one slot here simulates ~300x the nodes of ``slotsim_loop``,
    and counting node-slots makes the two scores express the same
    per-node cost.  The case moves when the array program (interference
    bincount, checkpoint masks) regresses.
    """
    from ..core import PAPER_PARAMETERS
    from ..slotsim import BatchSlotModelEngine, SlotModelConfig

    config = SlotModelConfig(
        params=PAPER_PARAMETERS.with_neighbors(3.0),
        p=0.02,
        torus_factor=102.0,  # ~10^4 nodes at N=3
        seed=3,
    )
    engine = BatchSlotModelEngine(config, batch=batch)
    results = engine.run(slots)
    assert all(r.initiations > 0 for r in results)
    return slots * batch * engine.geometry.count


def _case_network_cell(sim_seconds: float) -> int:
    from ..dessim import seconds
    from ..net import NetworkSimulation, TopologyConfig, generate_ring_topology

    topology = generate_ring_topology(TopologyConfig(n=3), random.Random(50))  # simlint: disable=SL001 -- fixed bench workload, not an experiment
    metrics = MetricsRegistry()
    net = NetworkSimulation(topology, "ORTS-OCTS", math.pi, seed=1, metrics=metrics)
    # 8x the shared duration: at the default 0.2 s this case runs
    # ~0.4 s, enough work to sit inside the gate's tolerance on a
    # shared host.
    result = net.run(seconds(8 * sim_seconds))
    assert result.duration_ns > 0
    assert metrics.counter("dessim.events").value > 0
    # Work unit: simulated nanoseconds.  The workload is fixed by the
    # config, so the unit survives scheduler/MAC changes to how many
    # kernel events the same simulated second takes.
    return result.duration_ns


def _case_network_large(sim_seconds: float) -> int:
    """~200-node directional cell: the link-cache transmit scan bench.

    ``n=8, rings=5`` is the configuration the channel fast path was
    sized against; a narrow beam makes every transmit a sector lookup
    rather than an O(N) trig sweep, so this case moves when the
    :class:`~repro.phy.LinkCache` hot path regresses.
    """
    from ..dessim import seconds
    from ..dessim.rng import RngRegistry
    from ..net import NetworkSimulation, TopologyConfig, generate_ring_topology

    placement = RngRegistry(7).stream("placement")
    topology = generate_ring_topology(TopologyConfig(n=8, rings=5), placement)
    metrics = MetricsRegistry()
    net = NetworkSimulation(
        topology, "DRTS-OCTS", math.pi / 3, seed=1, metrics=metrics
    )
    result = net.run(seconds(sim_seconds))
    assert result.duration_ns > 0
    assert metrics.counter("dessim.events").value > 0
    # Work unit: simulated nanoseconds (see _case_network_cell).
    return result.duration_ns


def _case_network_sinr(sim_seconds: float) -> int:
    """The ~200-node directional cell under SINR/capture reception.

    Identical workload to ``network_large`` but with
    :class:`~repro.phy.reception.SinrCaptureReception` supplying link
    budgets and per-signal SINR tracking, so this case moves when the
    reception subsystem's hot path (linear-power bookkeeping, shadowed
    link budgets through the cache) regresses — separately from the
    unit-disk fast path, which ``network_large`` keeps honest.  Every
    repeat reruns the same seed, so the shadowing memo is cleared
    first: each one times the cold build, whatever ran before it.
    """
    from ..dessim import seconds
    from ..dessim.rng import RngRegistry
    from ..net import NetworkSimulation, TopologyConfig, generate_ring_topology
    from ..phy.reception import PhyConfig, clear_shadowing_memo

    clear_shadowing_memo()
    placement = RngRegistry(7).stream("placement")
    topology = generate_ring_topology(TopologyConfig(n=8, rings=5), placement)
    metrics = MetricsRegistry()
    net = NetworkSimulation(
        topology,
        "DRTS-OCTS",
        math.pi / 3,
        seed=1,
        metrics=metrics,
        phy_config=PhyConfig(model="sinr"),
    )
    result = net.run(seconds(sim_seconds))
    assert result.duration_ns > 0
    assert metrics.counter("dessim.events").value > 0
    # Work unit: simulated nanoseconds (see _case_network_cell).
    return result.duration_ns


def _case_multihop_medium(sim_seconds: float) -> int:
    """Routed flows over a connected two-ring cell: the relay-plane bench.

    Exercises the full multi-hop stack — greedy geographic routing,
    per-node forwarding agents, flow sources — on top of the
    directional MAC, so it moves when the relay plane (queue handling,
    payload plumbing, delivery listeners) regresses in a way the
    single-hop cases cannot see.
    """
    from ..dessim import seconds
    from ..dessim.rng import RngRegistry
    from ..net import (
        MultihopNetworkSimulation,
        TopologyConfig,
        generate_connected_ring_topology,
    )

    placement = RngRegistry(2).stream("placement")
    topology = generate_connected_ring_topology(
        TopologyConfig(n=5, rings=2), placement
    )
    metrics = MetricsRegistry()
    net = MultihopNetworkSimulation(
        topology, "DRTS-OCTS", math.pi / 2, seed=1, metrics=metrics
    )
    # 15x the shared duration, for ~0.4 s of work (see _case_network_cell).
    result = net.run(seconds(15 * sim_seconds))
    assert result.packets_originated > 0
    assert metrics.counter("dessim.events").value > 0
    # Work unit: simulated nanoseconds (see _case_network_cell).
    return result.duration_ns


def _case_mobility_churn(sim_seconds: float) -> int:
    """Saturated ring with wandering nodes: cache-invalidation bench.

    Half the nodes follow random-waypoint mobility with a 1 ms step, so
    every millisecond of simulated time bumps position epochs and forces
    the link cache to rebuild rows.  This case moves when invalidation
    or rebuild cost regresses, which the static cases cannot see.
    """
    from ..dessim import Simulator, seconds
    from ..dessim.rng import RngRegistry
    from ..dessim.units import MILLISECOND
    from ..mac.config import DSSS_MAC
    from ..mac.dcf import DcfMac
    from ..mac.neighbors import SnapshotNeighborTable
    from ..mac.policy import POLICIES
    from ..net.mobility import RandomWaypointMobility
    from ..net.network import close_stack
    from ..phy.channel import Channel
    from ..phy.propagation import Position, UnitDiskPropagation
    from ..phy.radio import Radio
    from ..traffic.cbr import SaturatedCbrSource

    sim = Simulator()
    channel = Channel(sim, propagation=UnitDiskPropagation(range_m=250.0))
    rng = RngRegistry(13)
    n = 12
    radios = {
        nid: Radio(
            sim,
            nid,
            Position(
                150.0 * math.cos(2 * math.pi * nid / n),
                150.0 * math.sin(2 * math.pi * nid / n),
            ),
            channel,
        )
        for nid in range(n)
    }
    macs = {
        nid: DcfMac(
            sim,
            radios[nid],
            DSSS_MAC,
            SnapshotNeighborTable(channel, nid, 10 * MILLISECOND, sim=sim),
            POLICIES["DRTS-OCTS"],
            beamwidth=math.pi / 3,
            rng=rng.stream(f"mac{nid}"),
        )
        for nid in range(n)
    }
    movers = [
        RandomWaypointMobility(
            sim,
            radios[nid],
            rng.stream(f"waypoints{nid}"),
            speed_mps=50.0,
            bounds=(-250.0, -250.0, 250.0, 250.0),
            step_ns=MILLISECOND,
        )
        for nid in range(0, n, 2)
    ]
    for mover in movers:
        mover.start()
    for nid in range(n):
        SaturatedCbrSource(
            sim, macs[nid], [(nid + 1) % n], rng.stream(f"traffic{nid}")
        ).start()
    # 15x the shared duration, for ~0.4 s of work (see _case_network_cell).
    sim.run(until=seconds(15 * sim_seconds))
    assert channel.cache.move_seq > len(movers)
    assert sim.events_processed > 0
    close_stack(sim, channel, macs.values())
    # Work unit: simulated nanoseconds (see _case_network_cell).
    return sim.now


def _case_analytic_point() -> int:
    """The slowest op of the repository bench's analytic block.

    One dense Fig. 5 point of DRTS-DCTS (N = 7, theta = 5 degrees):
    ``maximize_throughput`` (a few dozen quadratures of the
    per-distance integrand), then 20,000 Monte-Carlo samples of
    ``P_ws`` at the optimum (the sampler's slot walker).  The case
    moves when either hot path of the analytic core regresses.  Work
    unit: Monte-Carlo samples.
    """
    from ..core import PAPER_PARAMETERS, DrtsDcts, estimate_p_ws, maximize_throughput
    from ..dessim.rng import RngRegistry

    scheme = DrtsDcts(
        PAPER_PARAMETERS.with_neighbors(7.0).with_beamwidth(math.radians(5.0))
    )
    optimum = maximize_throughput(scheme)
    rng = RngRegistry(7).stream("montecarlo")
    estimate = estimate_p_ws(scheme, optimum.p_opt, rng, samples=20_000)
    assert 0.0 < estimate.mean < 1.0
    return estimate.samples


def _case_lint_full_tree() -> int:
    """Cold + warm whole-repo lint: the incremental-cache bench.

    Lints the package's own source tree twice against a throwaway cache
    — a cold run (parse everything, run every rule, both phases) and a
    warm run (content hashes only).  The case moves when the project
    pass, a rule, or the cache path regresses; the warm-run assertion
    keeps the cache honest (zero misses means zero parsing).
    """
    import tempfile

    from ..lint.config import load_config
    from ..lint.engine import lint_paths

    src_root = pathlib.Path(__file__).resolve().parents[2]
    config = load_config(start=src_root)
    config.use_baseline = False
    with tempfile.TemporaryDirectory() as tmp:
        config.cache = str(pathlib.Path(tmp) / "bench-cache.json")
        cold = lint_paths([src_root / "repro"], config)
        warm = lint_paths([src_root / "repro"], config)
    assert cold.files_checked == warm.files_checked > 0
    assert cold.errors == [] and warm.errors == []
    assert warm.cache_misses == 0
    return cold.files_checked + warm.files_checked


def _timed(fn: Callable[[], int], repeats: int) -> dict:
    """Best paired (calibration, case) measurement over ``repeats`` runs.

    Each repeat samples the calibration quantum right before the case,
    then keeps the repeat with the best calibrated score, so the
    reported score and normalized wall come from the same interval.
    """
    best: dict | None = None
    for _ in range(repeats):
        calibration = _paired_calibration()
        start = wall_clock()
        count = fn()
        wall = wall_clock() - start
        per_sec = count / wall if wall > 0 else 0.0
        sample = {
            "count": count,
            "wall_seconds": wall,
            "per_sec": per_sec,
            # Hardware-normalized: work per calibration quantum.
            "score": per_sec * calibration,
            "normalized_wall": wall / calibration if calibration > 0 else 0.0,
        }
        if best is None or sample["score"] > best["score"]:
            best = sample
    assert best is not None
    return best


def run_suite(
    repeats: int = 3,
    *,
    kernel_events: int = 300_000,
    timer_churn_restarts: int = 300_000,
    slotsim_slots: int = 10_000,
    slotsim_batch_slots: int = 300,
    network_sim_seconds: float = 0.2,
) -> dict:
    """Run every case; return the ``repro-bench-v1`` payload."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    chains = 20
    depth = max(1, kernel_events // chains)
    cases: dict[str, dict] = {}
    suite: Sequence[tuple[str, Callable[[], int]]] = (
        ("dessim_event_kernel", lambda: _case_event_kernel(chains, depth)),
        ("timer_churn", lambda: _case_timer_churn(timer_churn_restarts)),
        ("slotsim_loop", lambda: _case_slotsim(slotsim_slots)),
        ("slotsim_batch", lambda: _case_slotsim_batch(slotsim_batch_slots)),
        ("network_cell", lambda: _case_network_cell(network_sim_seconds)),
        ("network_large", lambda: _case_network_large(network_sim_seconds)),
        ("network_sinr", lambda: _case_network_sinr(network_sim_seconds)),
        ("mobility_churn", lambda: _case_mobility_churn(network_sim_seconds)),
        ("multihop_medium", lambda: _case_multihop_medium(network_sim_seconds)),
        ("lint_full_tree", _case_lint_full_tree),
        ("analytic_point", _case_analytic_point),
    )
    for name, fn in suite:
        cases[name] = _timed(fn, repeats)
    return {
        "format": BENCH_FORMAT,
        "python": platform.python_version(),
        "repeats": repeats,
        "calibration_seconds": calibration_seconds(repeats),
        "cases": cases,
    }


def baseline_from_payload(
    payload: dict, tolerance: float = DEFAULT_TOLERANCE
) -> dict:
    """Distill a suite payload into a committable baseline."""
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(f"not a bench payload (format={payload.get('format')!r})")
    return {
        "format": BASELINE_FORMAT,
        "tolerance": tolerance,
        "cases": {
            name: {
                "score": case["score"],
                "normalized_wall": case["normalized_wall"],
            }
            for name, case in sorted(payload["cases"].items())
        },
    }


def compare_to_baseline(
    payload: dict, baseline: dict, tolerance: float | None = None
) -> list[str]:
    """Regression messages (empty when the payload meets the baseline).

    A case regresses when its calibrated throughput score drops more
    than ``tolerance`` below the baseline, or its normalized wall time
    rises more than ``tolerance`` above it.
    """
    if baseline.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"not a bench baseline (format={baseline.get('format')!r})"
        )
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    failures = []
    for name, base in sorted(baseline["cases"].items()):
        case = payload.get("cases", {}).get(name)
        if case is None:
            failures.append(f"{name}: missing from the measured suite")
            continue
        floor = base["score"] * (1 - tolerance)
        if case["score"] < floor:
            failures.append(
                f"{name}: score {case['score']:.1f} < {floor:.1f} "
                f"(baseline {base['score']:.1f} - {tolerance:.0%})"
            )
        ceiling = base["normalized_wall"] * (1 + tolerance)
        if case["normalized_wall"] > ceiling:
            failures.append(
                f"{name}: normalized wall {case['normalized_wall']:.2f} > "
                f"{ceiling:.2f} (baseline {base['normalized_wall']:.2f} "
                f"+ {tolerance:.0%})"
            )
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Telemetry benchmark harness: snapshot + perf-gate check.",
    )
    parser.add_argument(
        "--out", default="BENCH_telemetry.json", metavar="PATH",
        help="write the repro-bench-v1 snapshot here (default %(default)s)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against a committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="distill this run into a committable baseline file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline's allowed regression fraction",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--kernel-events", type=int, default=300_000)
    parser.add_argument("--timer-churn-restarts", type=int, default=300_000)
    parser.add_argument("--slotsim-slots", type=int, default=10_000)
    parser.add_argument("--slotsim-batch-slots", type=int, default=300)
    parser.add_argument("--network-sim-seconds", type=float, default=0.2)
    args = parser.parse_args(argv)

    payload = run_suite(
        args.repeats,
        kernel_events=args.kernel_events,
        timer_churn_restarts=args.timer_churn_restarts,
        slotsim_slots=args.slotsim_slots,
        slotsim_batch_slots=args.slotsim_batch_slots,
        network_sim_seconds=args.network_sim_seconds,
    )
    pathlib.Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for name, case in sorted(payload["cases"].items()):
        print(
            f"{name:<22} {case['count']:>10,} in {case['wall_seconds']:.3f}s "
            f"({case['per_sec']:,.0f}/s, score {case['score']:.1f})"
        )
    print(f"calibration quantum    {payload['calibration_seconds']:.4f}s")

    if args.write_baseline:
        baseline = baseline_from_payload(
            payload,
            DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance,
        )
        pathlib.Path(args.write_baseline).write_text(
            json.dumps(baseline, indent=2) + "\n"
        )
        print(f"baseline written to {args.write_baseline}")

    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failures = compare_to_baseline(payload, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"perf gate OK against {args.check}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
