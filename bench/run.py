#!/usr/bin/env python3
"""The repository benchmark: four closed-loop workloads, timed from outside.

Each workload is a fixed block of operations ("ops") generated from
``--seed``.  One client runs them one at a time in this process -- the
next op starts when the previous one returns, no threads -- cycling
through the block for ``--seconds``, calling only public functions of
the ``repro`` package and timing each call.  Every op's output is
checked.  The last line of standard output is one JSON object::

    python3 bench/run.py --workload paper_grid --seed 7 --seconds 22 --trace 0

``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``.  ``--trace 1`` runs every op twice, first plainly
and then instrumented (a ``MetricsRegistry`` and a ``CallbackProfiler``
on the simulations), requires both results to be identical, and reports
the per-layer metrics.  Without ``--workload``, every workload runs in
its own interpreter, untraced and then traced, and a table is printed::

    python3 bench/run.py --seed 2003 --out results.json

``bench/README.md`` describes the workloads, the metrics and their
bounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
#: Campaign stores live here while an op runs; removed when it ends.
#: They stay inside the checkout, not the system temp directory, because
#: the benchmark reads and writes nothing outside the tree it runs from.
WORK_DIR = BENCH_DIR / ".work"

clock = time.perf_counter

SCHEMES = ("ORTS-OCTS", "DRTS-DCTS", "DRTS-OCTS")
GRID_BEAMWIDTHS_DEG = (30, 90, 150)
#: The dense Fig. 5 sweep: 8 densities x 3 schemes x 36 beamwidths.
SWEEP_N = tuple(range(3, 11))
SWEEP_BEAMWIDTHS_DEG = tuple(range(5, 181, 5))
SWEEP_SIZE = len(SWEEP_N) * len(SCHEMES) * len(SWEEP_BEAMWIDTHS_DEG)
#: Coprime to SWEEP_SIZE, so op i visits sweep point (i * stride) mod
#: SWEEP_SIZE: every stretch of ops mixes densities, schemes and beams,
#: and a run that covers only part of the sweep still sees all kinds.
SWEEP_STRIDE = 385
P_GRID_POINTS = 48
MC_SAMPLES = 20_000
#: Campaign ops in the campaign_small block.
CAMPAIGN_BLOCK = 200

#: Fresh interpreters launched to time set-up; setup_s is their median.
#: One launch swings widely from run to run; a median of five is steadier.
SETUP_LAUNCHES = 5
#: The tail percentile must leave at least this many samples above it.
MIN_BEYOND = 10
#: An analytic op fails when its Monte Carlo estimate of P_ws lies more
#: than this many standard errors from the closed form.
MC_SIGMAS = 5.0


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def digest(values: dict) -> str:
    """SHA-256 of a JSON record; floats keep every digit."""
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail_percentile(samples: list[float], pct: float) -> tuple[float, float]:
    """``(percentile used, value)`` of the tail of ``samples``.

    Nearest-rank value at ``pct``, lowered until at least
    ``MIN_BEYOND`` samples rank above it.  A rank that falls to the
    middle or below gives the median (as ``op_p50_s`` reports it), so
    with ``2 * MIN_BEYOND`` samples or fewer the tail is the median.
    """
    ordered = sorted(samples)
    count = len(ordered)
    rank = math.ceil(pct * count)
    if count - rank < MIN_BEYOND:
        rank = count - MIN_BEYOND
        pct = rank / count
    if rank <= count / 2:
        return 0.5, statistics.median(ordered)
    return pct, ordered[rank - 1]


@dataclass
class Outcome:
    """What one op returned: a digest of its result, the values its
    check inspects, and the benchmark's spans and instrument readings."""

    digest: str
    values: dict
    record: dict


# ----------------------------------------------------------------------
# Simulation ops: paper_grid and sinr_large.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """Build one network, run it, reduce its result."""

    topology: Any
    scheme: str
    beamwidth_deg: int
    seed: int
    sim_ns: int
    sinr: bool


def make_cells(
    name: str,
    seed: int,
    scale: float,
    *,
    n_values: tuple[int, ...],
    rings: int,
    sim_seconds: float,
    sinr: bool,
    replicates: int,
) -> tuple[list[Cell], dict]:
    """``replicates`` rounds of every (N, scheme, beam) cell.

    Each round uses fresh topologies; within a round the nine (scheme,
    beamwidth) cells of one N share a topology and a simulation seed,
    as in the paper's campaign.  N varies fastest, then the scheme, so
    any stretch of ops mixes all densities.
    """
    from repro.dessim import seconds
    from repro.dessim.rng import RngRegistry
    from repro.net import TopologyConfig, generate_ring_topology
    # Set-up time covers the imports the ops need.
    from repro.net import NetworkSimulation  # noqa: F401
    from repro.phy.reception import PhyConfig  # noqa: F401

    root = RngRegistry(seed)
    sim_ns = max(1, seconds(sim_seconds * scale))
    block = len(n_values) * len(SCHEMES) * len(GRID_BEAMWIDTHS_DEG)
    replicas: dict[tuple[int, int], tuple[Any, int]] = {}
    topology_s = []
    cells = []
    for index in range(replicates * block):
        replicate, position = divmod(index, block)
        position, n_index = divmod(position, len(n_values))
        theta_index, scheme_index = divmod(position, len(SCHEMES))
        n = n_values[n_index]
        if (n, replicate) not in replicas:
            stream = root.spawn(f"bench-{name}-topology-n{n}-r{replicate}").stream(
                "placement"
            )
            start = clock()
            topology = generate_ring_topology(TopologyConfig(n=n, rings=rings), stream)
            topology_s.append(clock() - start)
            sim_seed = root.spawn(f"bench-{name}-sim-n{n}-r{replicate}").master_seed
            replicas[n, replicate] = (topology, sim_seed)
        topology, sim_seed = replicas[n, replicate]
        cells.append(
            Cell(
                topology,
                SCHEMES[scheme_index],
                GRID_BEAMWIDTHS_DEG[theta_index],
                sim_seed,
                sim_ns,
                sinr,
            )
        )
    return cells, {"net.topology_s": statistics.median(topology_s)}


def cell_op(cell: Cell, traced: bool) -> Outcome:
    from repro.net import NetworkSimulation
    from repro.obs import CallbackProfiler, MetricsRegistry
    from repro.phy.reception import PhyConfig

    metrics = MetricsRegistry() if traced else None
    start = clock()
    net = NetworkSimulation(
        cell.topology,
        cell.scheme,
        math.radians(cell.beamwidth_deg),
        seed=cell.seed,
        metrics=metrics,
        phy_config=PhyConfig(model="sinr") if cell.sinr else None,
    )
    built = clock()
    if traced:
        profiler = CallbackProfiler()
        net.sim.dispatch_hook = profiler
    result = net.run(cell.sim_ns)
    ran = clock()
    values = {
        "duration_ns": result.duration_ns,
        "inner_throughput_bps": result.inner_throughput_bps,
        "inner_mean_delay_s": result.inner_mean_delay_s,
        "inner_collision_ratio": result.inner_collision_ratio,
        "inner_fairness": result.inner_fairness,
        "inner_packets_delivered": result.inner_packets_delivered,
        "frames_captured": result.frames_captured,
        "frames_sinr_dropped": result.frames_sinr_dropped,
    }
    reduced = clock()
    record = {
        "build": built - start,
        "run": ran - built,
        "reduce": reduced - ran,
        "nodes": len(cell.topology.positions),
        "sim_s": cell.sim_ns / 1e9,
        "captures": result.frames_captured,
        "sinr_drops": result.frames_sinr_dropped,
    }
    if traced:
        record["counters"] = metrics.snapshot()["counters"]
        record["callbacks"] = {
            key: entry["seconds"] for key, entry in profiler.as_dict().items()
        }
    return Outcome(digest(values), values, record)


def check_cell(cell: Cell, outcome: Outcome, _fig5: dict) -> list[str]:
    """Invariants every simulation result must satisfy, for any seed."""
    from repro.traffic.cbr import DEFAULT_PACKET_BYTES

    v = outcome.values
    errors = []
    if v["duration_ns"] != cell.sim_ns:
        errors.append(f"duration {v['duration_ns']} ns, asked for {cell.sim_ns}")
    if not 0.0 <= v["inner_collision_ratio"] <= 1.0:
        errors.append(f"collision ratio {v['inner_collision_ratio']} outside [0, 1]")
    if not 0.0 < v["inner_fairness"] <= 1.0:
        errors.append(f"Jain index {v['inner_fairness']} outside (0, 1]")
    bits = v["inner_packets_delivered"] * 8 * DEFAULT_PACKET_BYTES
    carried = v["inner_throughput_bps"] * cell.sim_ns / 1e9
    if not math.isclose(carried, bits, rel_tol=1e-9):
        errors.append("throughput disagrees with the delivered packet count")
    if (v["inner_mean_delay_s"] > 0) != (v["inner_packets_delivered"] > 0):
        errors.append("mean delay and delivered count disagree on any delivery")
    if not cell.sinr and (v["frames_captured"] or v["frames_sinr_dropped"]):
        errors.append("a unit-disk run reported SINR captures or drops")
    return errors


_CELL_COUNTERS = (
    "dessim.events",
    "dessim.scheduled",
    "dessim.cancelled",
    "dessim.wheel.event_reuse",
    "phy.transmissions",
    "phy.frames.rts",
    "phy.frames.data",
    "mac.rts_sent",
    "mac.cts_timeouts",
    "mac.ack_timeouts",
    "mac.packets_delivered",
    "mac.packets_dropped",
)
_CALLBACK_SHARES = {
    "phy.on_signal_end_share": ".on_signal_end",
    "phy.on_signal_start_share": ".on_signal_start",
    "phy.finish_transmit_share": "._finish_transmit",
    "mac.on_backoff_expired_share": "._on_backoff_expired",
    "mac.fire_response_share": "._fire_response",
}


def cell_layers(
    setup: dict, plain: list[dict], traced: list[dict], count_ops: int
) -> dict:
    """Per-layer metrics of the simulation workloads.

    Times come from the plain pass; counts from the first
    ``count_ops`` instrumented ops, which every traced run completes,
    so they repeat exactly; callback shares from the hooked event loop.
    """
    build = [r["build"] for r in plain]
    run = [r["run"] for r in plain]
    reduce = [r["reduce"] for r in plain]
    counted = traced[:count_ops]
    totals = {
        name: sum(r["counters"].get(name, 0) for r in counted)
        for name in _CELL_COUNTERS
    }
    callbacks: dict[str, float] = {}
    for r in traced:
        for key, seconds in r["callbacks"].items():
            callbacks[key] = callbacks.get(key, 0.0) + seconds
    loop = sum(r["run"] for r in traced)

    def share(select: Callable[[str], bool]) -> float:
        return ratio(sum(s for key, s in callbacks.items() if select(key)), loop)

    layers = {
        "net.topology_s": setup["net.topology_s"],
        "net.nodes": statistics.median(r["nodes"] for r in plain),
        "net.build_s": statistics.median(build),
        "net.build_share": ratio(sum(build), sum(build) + sum(run) + sum(reduce)),
        "net.run_s": statistics.median(run),
        "net.sim_s_per_host_s": ratio(sum(r["sim_s"] for r in plain), sum(run)),
        "metrics.reduce_s": statistics.median(reduce),
        "dessim.host_ns_per_event": ratio(
            sum(r["run"] for r in plain[:count_ops]) * 1e9, totals["dessim.events"]
        ),
        **totals,
        "phy.captures": sum(r["captures"] for r in counted),
        "phy.sinr_drops": sum(r["sinr_drops"] for r in counted),
        "mac.handshake_success_ratio": ratio(
            totals["mac.packets_delivered"], totals["mac.rts_sent"]
        ),
        "dessim.kernel_share": ratio(loop - sum(callbacks.values()), loop),
    }
    # CallbackProfiler keys read "<layer>: <Class>.<method>".
    for layer in ("phy", "mac", "traffic"):
        layers[f"{layer}.share"] = share(lambda key, p=f"{layer}:": key.startswith(p))
    for metric, suffix in _CALLBACK_SHARES.items():
        layers[metric] = share(lambda key, suffix=suffix: key.endswith(suffix))
    return layers


# ----------------------------------------------------------------------
# Analytic ops: analytic_model.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """One dense Fig. 5 point: optimum, fast-path curve, Monte Carlo."""

    scheme: str
    n: int
    beamwidth_deg: int
    mc_seed: int
    samples: int

    @property
    def key(self) -> str:
        return fig5_key(self.scheme, self.n, self.beamwidth_deg)


def fig5_key(scheme: str, n: int, beamwidth_deg: int) -> str:
    return f"{scheme}/N{n}/{beamwidth_deg}"


def sweep_point(index: int) -> tuple[str, int, int]:
    """``(scheme, N, beamwidth in degrees)`` of op ``index``."""
    position = index * SWEEP_STRIDE % SWEEP_SIZE
    n_index, position = divmod(position, len(SCHEMES) * len(SWEEP_BEAMWIDTHS_DEG))
    scheme_index, theta_index = divmod(position, len(SWEEP_BEAMWIDTHS_DEG))
    return SCHEMES[scheme_index], SWEEP_N[n_index], SWEEP_BEAMWIDTHS_DEG[theta_index]


def make_points(seed: int, scale: float) -> tuple[list[Point], dict]:
    """Every point of the dense sweep once, in stride order."""
    import repro.core  # noqa: F401  (set-up covers the import)
    from repro.dessim.rng import RngRegistry

    root = RngRegistry(seed)
    samples = max(1, round(MC_SAMPLES * scale))
    points = [
        Point(
            *sweep_point(index),
            root.spawn(f"bench-analytic_model-mc-{index}").master_seed,
            samples,
        )
        for index in range(SWEEP_SIZE)
    ]
    return points, {}


def analytic_scheme(scheme: str, n: int, beamwidth_deg: int):
    from repro.core import PAPER_PARAMETERS, SCHEME_FACTORIES

    params = PAPER_PARAMETERS.with_neighbors(float(n))
    return SCHEME_FACTORIES[scheme](params.with_beamwidth(math.radians(beamwidth_deg)))


def fig5_printed(optimum) -> str:
    """A Fig. 5 point as ``repro fig5`` prints it: ``p_opt throughput``."""
    return f"{optimum.p_opt:.4f} {optimum.throughput:.4f}"


def point_op(point: Point, traced: bool) -> Outcome:
    import numpy as np
    from repro.core import estimate_p_ws, maximize_throughput, throughput_curve

    scheme = analytic_scheme(point.scheme, point.n, point.beamwidth_deg)
    p_grid = np.logspace(-5, math.log10(0.5), P_GRID_POINTS)
    start = clock()
    optimum = maximize_throughput(scheme)
    maximized = clock()
    curve = throughput_curve(scheme, p_grid)
    swept = clock()
    estimate = estimate_p_ws(
        scheme, optimum.p_opt, random.Random(point.mc_seed), samples=point.samples
    )
    sampled = clock()
    values = {
        "p_opt": optimum.p_opt,
        "throughput": optimum.throughput,
        "printed": fig5_printed(optimum),
        "curve": [float(x) for x in curve],
        "mc_mean": estimate.mean,
    }
    record = {
        "maximize": maximized - start,
        "fastpath": swept - maximized,
        "montecarlo": sampled - swept,
        "samples": point.samples,
    }
    return Outcome(digest(values), values, record)


def check_point(point: Point, outcome: Outcome, fig5: dict) -> list[str]:
    """Fig. 5 golden values, the Monte Carlo cross-check, and the
    fast-path curve staying under (and near) the optimum."""
    v = outcome.values
    errors = []
    expected = fig5.get(point.key)
    if expected is not None and v["printed"] != expected:
        errors.append(f"{point.key}: Fig. 5 point {v['printed']}, golden {expected}")
    scheme = analytic_scheme(point.scheme, point.n, point.beamwidth_deg)
    reference = scheme.p_ws(v["p_opt"])
    std_error = math.sqrt(reference * (1.0 - reference) / point.samples)
    if abs(v["mc_mean"] - reference) > MC_SIGMAS * std_error:
        errors.append(
            f"{point.key}: Monte Carlo P_ws {v['mc_mean']:.6f} is more than "
            f"{MC_SIGMAS:g} SE from the closed form {reference:.6f}"
        )
    peak = max(v["curve"])
    if not 0.9 * v["throughput"] <= peak <= v["throughput"] * (1 + 1e-3):
        errors.append(f"{point.key}: fast-path peak {peak}, optimum {v['throughput']}")
    return errors


def point_layers(
    setup: dict, plain: list[dict], traced: list[dict], count_ops: int
) -> dict:
    names = ("maximize", "fastpath", "montecarlo")
    spans = {name: [r[name] for r in plain] for name in names}
    total = sum(sum(values) for values in spans.values())
    layers = {}
    for name, values in spans.items():
        layers[f"core.{name}_s"] = statistics.median(values)
        layers[f"core.{name}_share"] = ratio(sum(values), total)
    layers["core.mc_samples_per_s"] = ratio(
        sum(r["samples"] for r in plain), sum(spans["montecarlo"])
    )
    return layers


# ----------------------------------------------------------------------
# Campaign ops: campaign_small.
# ----------------------------------------------------------------------


def make_campaigns(seed: int, scale: float) -> tuple[list, dict]:
    """Nine-cell grids (N=3, one topology) with op-specific base seeds."""
    from repro.dessim import seconds
    from repro.dessim.rng import RngRegistry
    from repro.experiments.campaign import CampaignProgress, run_campaign  # noqa: F401
    from repro.experiments.config import SimStudyConfig

    root = RngRegistry(seed)
    sim_ns = max(1, seconds(0.01 * scale))
    configs = [
        SimStudyConfig(
            n_values=(3,),
            topologies=1,
            sim_time_ns=sim_ns,
            base_seed=root.spawn(f"bench-campaign_small-base-{index}").master_seed,
        )
        for index in range(CAMPAIGN_BLOCK)
    ]
    return configs, {}


def _cell_artifacts(directory: Path) -> str:
    artifacts = hashlib.sha256()
    for path in sorted(directory.glob("cell-*.json")):
        artifacts.update(path.name.encode())
        artifacts.update(path.read_bytes())
    return artifacts.hexdigest()


def campaign_op(config, traced: bool) -> Outcome:
    """Compute a fresh store, then resume it (which loads every cell)."""
    from repro.experiments.campaign import CampaignProgress, run_campaign

    stamps: list[float] = []
    progress = None
    if traced:
        progress = CampaignProgress(echo=lambda _line: stamps.append(clock()))
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="campaign-", dir=WORK_DIR) as name:
        directory = Path(name)
        start = clock()
        computed = run_campaign(
            config, workers=1, directory=directory, progress=progress
        )
        written = clock()
        written_artifacts = _cell_artifacts(directory)
        resume_start = clock()
        resumed = run_campaign(config, workers=1, directory=directory)
        resumed_at = clock()
        files = [path for path in directory.iterdir() if path.is_file()]
        values = {
            "artifacts": _cell_artifacts(directory),
            "written_artifacts": written_artifacts,
            "cells": len(computed),
            "resumed_equal": resumed == computed,
        }
        record = {
            "write": written - start,
            "resume": resumed_at - resume_start,
            "files": len(files),
            "bytes": sum(path.stat().st_size for path in files),
        }
    if traced:
        # The last progress line is the last cell's completion.
        record["finish"] = written - stamps[-1]
    return Outcome(values["artifacts"], values, record)


def check_campaign(config, outcome: Outcome, _fig5: dict) -> list[str]:
    v = outcome.values
    errors = []
    if v["cells"] != 9:
        errors.append(f"{v['cells']} cells, expected 9")
    if not v["resumed_equal"]:
        errors.append("resumed results differ from the computed ones")
    if v["artifacts"] != v["written_artifacts"]:
        errors.append("resuming changed the stored cell artifacts")
    return errors


def campaign_layers(
    setup: dict, plain: list[dict], traced: list[dict], count_ops: int
) -> dict:
    return {
        "experiments.write_pass_s": statistics.median(r["write"] for r in plain),
        "experiments.resume_pass_s": statistics.median(r["resume"] for r in plain),
        "experiments.finish_s": statistics.median(r["finish"] for r in traced),
        "experiments.store_files": plain[0]["files"],
        "experiments.store_bytes": statistics.median(r["bytes"] for r in plain),
    }


# ----------------------------------------------------------------------
# The workloads.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, scale) -> (the block of op inputs, set-up readings)``.
    #: Op ``i`` of a run takes input ``i`` modulo the block's length.
    inputs: Callable[[int, float], tuple[list, dict]]
    op: Callable[[Any, bool], Outcome]
    check: Callable[[Any, Outcome, dict], list[str]]
    layers: Callable[[dict, list, list, int], dict]
    #: Nominal percentile of op_tail_s (lowered by ``tail_percentile``).
    tail_pct: float
    #: A traced run always completes this many timed ops and reports
    #: its per-layer counts over exactly these, so counts repeat.
    count_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_grid",
            partial(
                make_cells,
                "paper_grid",
                n_values=(3, 5, 8),
                rings=3,
                # The paper simulates 2 s; 1 s keeps about 60 ops in a
                # 22 s run, enough for a p80 tail with 10 samples beyond.
                sim_seconds=1.0,
                sinr=False,
                replicates=2,
            ),
            cell_op,
            check_cell,
            cell_layers,
            tail_pct=0.80,
            count_ops=27,
        ),
        Workload(
            "sinr_large",
            partial(
                make_cells,
                "sinr_large",
                n_values=(8,),
                rings=5,
                sim_seconds=0.2,
                sinr=True,
                replicates=6,
            ),
            cell_op,
            check_cell,
            cell_layers,
            tail_pct=0.80,
            count_ops=9,
        ),
        Workload(
            "analytic_model",
            make_points,
            point_op,
            check_point,
            point_layers,
            tail_pct=0.98,
            count_ops=1,
        ),
        Workload(
            "campaign_small",
            make_campaigns,
            campaign_op,
            check_campaign,
            campaign_layers,
            tail_pct=0.95,
            count_ops=1,
        ),
    )
}


# ----------------------------------------------------------------------
# Measuring one workload.
# ----------------------------------------------------------------------


def read_goldens(
    name: str, seed: int, scale: float, golden_dir: Path
) -> tuple[list | None, dict]:
    """Per-op digests for (seed, scale), if recorded, and the Fig. 5 points."""
    ops = None
    seed_path = golden_dir / f"seed-{seed}.json"
    if seed_path.exists():
        golden = json.loads(seed_path.read_text())
        if golden["scale"] == scale:
            ops = golden["ops"].get(name)
    fig5_path = golden_dir / "fig5.json"
    fig5 = json.loads(fig5_path.read_text()) if fig5_path.exists() else {}
    return ops, fig5


def setup_seconds(name: str, seed: int, scale: float) -> float:
    """Median wall time of fresh interpreters that import and generate inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload", name,
        "--seed", str(seed),
        "--scale", repr(scale),
    ]
    samples = []
    for _ in range(SETUP_LAUNCHES):
        start = clock()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(clock() - start)
    return statistics.median(samples)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, index: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"op {index}: {problem}")


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    scale: float,
    golden_dir: Path = GOLDEN_DIR,
) -> dict:
    """Run one workload for ``seconds``; return the final JSON record."""
    spec = load_spec()
    golden, fig5 = read_goldens(workload.name, seed, scale, golden_dir)
    setup_s = None if traced else setup_seconds(workload.name, seed, scale)
    inputs, setup = workload.inputs(seed, scale)
    if golden is not None and len(golden) != len(inputs):
        raise SystemExit(
            f"{workload.name}: {len(golden)} golden digests for a block of "
            f"{len(inputs)} ops; record them again with --write-golden"
        )
    tally = Tally()
    # The digest each input first gave; a repeat must give it again.
    seen: dict[int, str] = {}

    def attempt(index: int):
        """Run (and check) op ``index``; ``None`` when it failed."""
        position = index % len(inputs)
        item = inputs[position]
        tally.attempted += 1
        try:
            start = clock()
            plain = workload.op(item, False)
            plain_s = clock() - start
            problems = workload.check(item, plain, fig5)
            instrumented = instrumented_s = None
            if traced:
                start = clock()
                instrumented = workload.op(item, True)
                instrumented_s = clock() - start
                if instrumented.digest != plain.digest:
                    problems.append("the traced result differs from the untraced one")
        except Exception:  # the loop must go on; the failure is counted
            tally.fail(index, traceback.format_exc())
            return None
        if golden and golden[position] != plain.digest:
            problems.append("the result digest differs from the golden digest")
        if seen.setdefault(position, plain.digest) != plain.digest:
            problems.append("the same input gave a different result before")
        if problems:
            tally.fail(index, "; ".join(problems))
            return None
        return plain_s, plain, instrumented_s, instrumented

    # Op 0 runs first, untimed, so lazy imports and first-use set-up
    # finish before timing; it runs again at the end, so every run
    # repeats at least one input.
    attempt(0)
    done = []
    start = clock()
    deadline = start + seconds
    index = 1
    while clock() < deadline or (traced and index <= workload.count_ops):
        result = attempt(index)
        if result is not None:
            done.append(result)
        index += 1
    elapsed = clock() - start
    attempt(0)
    if not done:
        raise SystemExit(f"{workload.name}: no op completed; {tally.problems}")

    times = [entry[0] for entry in done]
    used_pct, tail = tail_percentile(times, workload.tail_pct)
    notes = [
        f"workload {workload.name}  seed {seed}  trace {int(traced)}  scale {scale:g}",
        f"ops {len(done)} completed, {tally.failed} failed of {tally.attempted} "
        f"attempted, in {elapsed:.3f} s",
        f"tail: p{100 * used_pct:.1f} of {len(times)} samples "
        f"({sum(1 for t in times if t > tail)} beyond)",
        f"error_rate {ratio(tally.failed, tally.attempted):.4f}",
    ]
    if traced:
        catalogue = spec["per_layer"]
        # A layer the workload does not run reads 0.
        values = {entry["name"]: 0 for entry in catalogue}
        values.update(
            workload.layers(
                setup,
                [entry[1].record for entry in done],
                [entry[3].record for entry in done],
                workload.count_ops,
            )
        )
        values["obs.trace_overhead"] = ratio(sum(e[2] for e in done), sum(times)) - 1
    else:
        catalogue = spec["end_to_end"]
        # ru_maxrss is in kilobytes on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "ops_per_s": len(done) / elapsed,
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {
        entry["name"]: {"value": values.pop(entry["name"]), "unit": entry["unit"]}
        for entry in catalogue
    }
    if values:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Goldens and the all-workload run.
# ----------------------------------------------------------------------


def write_json(path: Path, payload: dict, indent: int) -> None:
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def write_goldens(
    names: list[str], seed: int, scale: float, golden_dir: Path = GOLDEN_DIR
) -> None:
    """Record the digest of every op in each block for (seed, scale) and,
    with analytic_model, every Fig. 5 point of the dense sweep as
    ``repro fig5`` prints it."""
    from repro.core import maximize_throughput

    golden_dir.mkdir(parents=True, exist_ok=True)
    seed_path = golden_dir / f"seed-{seed}.json"
    golden = {"seed": seed, "scale": scale, "ops": {}}
    if seed_path.exists():
        existing = json.loads(seed_path.read_text())
        if existing["scale"] == scale:
            golden = existing
    for name in names:
        workload = WORKLOADS[name]
        inputs, _ = workload.inputs(seed, scale)
        golden["ops"][name] = [workload.op(item, False).digest for item in inputs]
        print(f"{name}: {len(inputs)} op digests")
        if name == "analytic_model":
            fig5 = {}
            for index in range(SWEEP_SIZE):
                point = sweep_point(index)
                optimum = maximize_throughput(analytic_scheme(*point))
                fig5[fig5_key(*point)] = fig5_printed(optimum)
            write_json(golden_dir / "fig5.json", fig5, indent=0)
            print(f"{name}: {len(fig5)} Fig. 5 points")
    write_json(seed_path, golden, indent=0)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own interpreter, untraced then traced."""
    import platform

    runs: dict[str, dict] = {}
    status = 0
    for traced in (0, 1):
        for name in WORKLOADS:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(traced),
                "--scale", repr(args.scale),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(completed.stdout, end="", flush=True)
            if completed.returncode != 0:
                print(f"{name} (trace {traced}) failed", file=sys.stderr)
                status = 1
                continue
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            runs.setdefault(name, {})["traced" if traced else "untraced"] = result
            if not result["correct"]:
                status = 1
    if args.out:
        payload = {
            "format": "repro-bench-results-v1",
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "workloads": runs,
        }
        write_json(Path(args.out), payload, indent=1)
    print(f"\n{'workload':<16} {'metric':<32} {'value':>14}  unit")
    for name, modes in runs.items():
        for mode in modes.values():
            for metric, entry in mode["metrics"].items():
                value, unit = entry["value"], entry["unit"]
                print(f"{name:<16} {metric:<32} {value:>14.6g}  {unit}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="default: every workload, each in its own interpreter",
    )
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds in BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink each op's work (smoke tests)"
    )
    parser.add_argument("--out", help="without --workload: write all results here")
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="record the golden digests of --seed at --scale",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.scale <= 0 or args.seconds <= 0:
        parser.error("--scale and --seconds must be positive")

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.write_golden:
        write_goldens(names, args.seed, args.scale)
        return 0
    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.inputs(args.seed, args.scale)
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
