"""The campaign layer: parallel, resumable execution of study grids.

A *campaign* is the full ``(N, scheme, beamwidth)`` grid of a
:class:`~repro.experiments.config.SimStudyConfig`, decomposed into
self-contained :class:`CellSpec` work units.  Cells are embarrassingly
parallel — the paper's Section-4 study ran 50 topologies per cell on a
cluster — so :func:`run_campaign` fans them out, persists one JSON
artifact per completed cell (so interrupted campaigns resume by
skipping finished cells), and reports progress with a crude ETA.

Execution itself lives in :mod:`repro.experiments.dispatch`:
:func:`run_campaign` works its store (the given directory, or a
temporary one) through :class:`~repro.experiments.dispatch.ShardRunner`
shards — one in-process with a single worker, more in a process pool —
over the store's crash-tolerant work queue, and the same store can
simultaneously be worked by ``repro campaign-worker`` shards on other
hosts.  This module keeps the substrate those layers stand on:
seed/topology derivation, the pure cell workers, the atomic
:class:`CampaignStore`, progress reporting, and that one executor.

Seed discipline
===============

Every replicate's master seed is derived through
:class:`~repro.dessim.rng.RngRegistry`'s SHA-256 naming scheme rather
than by arithmetic on the base seed.  The old ``base_seed + replicate``
rule made adjacent base seeds alias (base 42 / replicate 1 drove the
very same draws as base 43 / replicate 0); the named derivation in
:func:`replicate_seed` keeps base seeds statistically disjoint.  The
stream name deliberately spans ``(N, replicate)`` but *not* the scheme
or beamwidth: every scheme in a cell-row sees identical topologies and
identical MAC/traffic draws, so common random numbers across schemes —
the paper's A/B methodology — stay a design decision, not an accident
of seed arithmetic.

Determinism contract: any number of shards, in or out of process,
produce byte-identical cell artifacts for the same config, because
every replicate is a pure function of ``(config, n, replicate)``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, ClassVar

from ..dessim.rng import RngRegistry
from ..net.network import NetworkSimulation, SimulationResult
from ..net.topology import Topology, TopologyConfig, generate_ring_topology
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler, wall_clock
from ..obs.telemetry import (
    append_telemetry,
    read_telemetry,
    summarize_cells,
    telemetry_record,
)
from .config import SimStudyConfig, workers_from_environment

__all__ = [
    "ReplicateMetrics",
    "CellResult",
    "CellSpec",
    "replicate_seed",
    "replicate_topology",
    "cached_topology",
    "grid_specs",
    "run_cell_spec",
    "measure_cell",
    "cell_telemetry",
    "config_fingerprint",
    "CampaignStore",
    "CampaignProgress",
    "run_campaign",
]


# ----------------------------------------------------------------------
# Seed and topology derivation — pure functions of (config, n, replicate).
# ----------------------------------------------------------------------


def replicate_seed(base_seed: int, n: int, replicate: int) -> int:
    """Registry-derived master seed for one simulation replicate.

    Derived via the SHA-256 ``(master_seed, name)`` scheme so distinct
    base seeds yield disjoint replicate streams.  The name spans ``(N,
    replicate)`` but not the scheme/beamwidth — common random numbers
    across schemes on the same topology are deliberate (the paper
    compares schemes on identical draws).
    """
    return RngRegistry(base_seed).spawn(f"sim-n{n}-r{replicate}").master_seed


def replicate_topology(
    base_seed: int, n: int, replicate: int, rings: int = 3
) -> Topology:
    """The ring topology for ``(base_seed, N, replicate)``.

    A named child registry per ``(N, replicate)``, exposed as a pure
    function so worker processes can regenerate topologies without
    shared state.
    ``rings`` widens the layout beyond the paper's 3 (e.g. the
    200-node ``n=8, rings=5`` profile/bench configuration) without
    disturbing the rings=3 stream derivation.
    """
    registry = RngRegistry(base_seed).spawn(f"topology-n{n}-r{replicate}")
    return generate_ring_topology(
        TopologyConfig(n=n, rings=rings), registry.stream("placement")
    )


@functools.lru_cache(maxsize=256)
def cached_topology(
    derive: Callable[[int, int, int, int], Topology],
    base_seed: int,
    n: int,
    replicate: int,
    rings: int = 3,
) -> Topology:
    """``derive(base_seed, n, replicate, rings)``, memoized per process.

    The one topology memo of every study: a derivation such as
    :func:`replicate_topology` is pure and scheme-blind, so each grid
    cell on the same ``(N, replicate)`` — every scheme and beamwidth —
    reuses one placement instead of regenerating it, in every shard
    process alike.  The bound (a few MB of ring
    topologies) holds a paper-scale campaign's working set.
    """
    return derive(base_seed, n, replicate, rings)


# ----------------------------------------------------------------------
# Data model: what a worker returns and what the store persists.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateMetrics:
    """Summary metrics of one replicate, exact under JSON round-trips.

    This is the unit the campaign layer ships between processes and to
    disk: the :class:`~repro.net.network.SimulationResult` scalar
    properties plus provenance (replicate index and derived seed), with
    the per-node event counters left behind in the worker.
    """

    #: Artifact dispatch tag: ``repro-cell-v1`` payloads carry it as
    #: their ``"kind"`` key so :mod:`repro.experiments.io` knows which
    #: replicate class to rebuild (multi-hop cells use ``"multihop"``).
    kind: ClassVar[str] = "sim"

    replicate: int
    seed: int
    duration_ns: int
    inner_throughput_bps: float
    inner_mean_delay_s: float
    inner_collision_ratio: float
    inner_fairness: float
    inner_packets_delivered: int

    @classmethod
    def from_result(
        cls, replicate: int, seed: int, result: SimulationResult
    ) -> "ReplicateMetrics":
        return cls(
            replicate=replicate,
            seed=seed,
            duration_ns=result.duration_ns,
            inner_throughput_bps=result.inner_throughput_bps,
            inner_mean_delay_s=result.inner_mean_delay_s,
            inner_collision_ratio=result.inner_collision_ratio,
            inner_fairness=result.inner_fairness,
            inner_packets_delivered=result.inner_packets_delivered,
        )

    @classmethod
    def from_record(cls, record: dict) -> "ReplicateMetrics":
        """Rebuild from the ``dataclasses.asdict`` JSON form."""
        return cls(**record)


@dataclass(frozen=True)
class CellResult:
    """All replicate results for one (N, scheme, beamwidth) grid cell."""

    n: int
    scheme: str
    beamwidth_deg: float
    results: tuple[ReplicateMetrics, ...]

    def metric(self, name: str) -> list[float]:
        """Extract one metric across replicates by property name."""
        return [getattr(result, name) for result in self.results]


@dataclass(frozen=True)
class CellSpec:
    """A self-contained work unit: one grid cell plus its config.

    Picklable by construction so it can be shipped to worker processes;
    everything a worker needs (seeds, durations, MAC/PHY parameters) is
    derivable from these four fields.
    """

    n: int
    scheme: str
    beamwidth_deg: float
    config: SimStudyConfig

    @property
    def key(self) -> str:
        """Stable identifier used for artifact filenames."""
        return f"n{self.n}-{self.scheme}-bw{self.beamwidth_deg:g}"


def grid_specs(config: SimStudyConfig) -> list[CellSpec]:
    """Every grid cell of ``config`` in canonical (N, scheme, θ) order."""
    return [
        CellSpec(n, scheme, beamwidth, config)
        for n in config.n_values
        for scheme in config.schemes
        for beamwidth in config.beamwidths_deg
    ]


def run_cell_spec(
    spec: CellSpec,
    metrics: MetricsRegistry | None = None,
    profiler: PhaseProfiler | None = None,
) -> CellResult:
    """Run all replicates of one grid cell.

    The single-hop worker, shared by the sim and SINR studies: networks
    are built with the config's ``phy_config`` (``None`` is the paper's
    unit disk) and replicates recorded as the ``replicate_cls`` of the
    config's row in the study table.

    Args:
        spec: the cell to run.
        metrics: optional telemetry registry threaded through to every
            replicate's :class:`NetworkSimulation`.
        profiler: optional phase profiler; accumulates "topology gen",
            "build", "event loop", and "metrics reduction" host time
            across replicates.

    This is the campaign's worker function: a pure function of ``spec``
    regardless of which process runs it or in what order, which is what
    makes campaigns byte-identical whatever their shard count.  ``metrics``
    and ``profiler`` are strictly observational: passing them cannot
    change the returned :class:`CellResult` (the determinism guard in
    ``tests/obs`` asserts this).
    """
    from .dispatch.registry import study_for  # deferred: registry imports us

    cfg = spec.config
    phy_config = cfg.phy_config
    replicate_cls = study_for(cfg).replicate_cls
    results = []
    for replicate in range(cfg.topologies):
        with profiler.phase("topology gen") if profiler else nullcontext():
            topo = cached_topology(replicate_topology, cfg.base_seed, spec.n, replicate)
        seed = replicate_seed(cfg.base_seed, spec.n, replicate)
        with profiler.phase("build") if profiler else nullcontext():
            simulation = NetworkSimulation(
                topo,
                spec.scheme,
                math.radians(spec.beamwidth_deg),
                seed=seed,
                mac_params=cfg.mac_params,
                phy_params=cfg.phy_params,
                metrics=metrics,
                phy_config=phy_config,
            )
        result = simulation.run(cfg.sim_time_ns, profiler=profiler)
        results.append(replicate_cls.from_result(replicate, seed, result))
    return CellResult(
        n=spec.n,
        scheme=spec.scheme,
        beamwidth_deg=spec.beamwidth_deg,
        results=tuple(results),
    )


def cell_telemetry(
    spec: CellSpec, metrics: MetricsRegistry, profiler: PhaseProfiler
) -> dict:
    """The ``repro-telemetry-v1`` record for one computed cell."""
    snapshot = metrics.snapshot()
    events = snapshot["counters"].get("dessim.events", 0)
    wall_seconds = profiler.total_seconds
    return telemetry_record(
        "cell",
        key=spec.key,
        n=spec.n,
        scheme=spec.scheme,
        beamwidth_deg=spec.beamwidth_deg,
        replicates=spec.config.topologies,
        sim_ns=spec.config.sim_time_ns,
        wall_seconds=wall_seconds,
        events_processed=events,
        events_per_sec=events / wall_seconds if wall_seconds > 0 else 0.0,
        phases=profiler.as_dict(),
        **snapshot,
    )


def measure_cell(
    worker: Callable[..., CellResult], spec: CellSpec
) -> tuple[CellResult, dict]:
    """Run any study's cell ``worker`` under observation.

    Returns ``(cell result, repro-telemetry-v1 record)``.  Same purity
    contract as the worker for the *result*; the telemetry record
    carries host-dependent timings and is excluded from resume/equality
    semantics.
    """
    metrics = MetricsRegistry()
    profiler = PhaseProfiler()
    cell = worker(spec, metrics=metrics, profiler=profiler)
    return cell, cell_telemetry(spec, metrics, profiler)


# ----------------------------------------------------------------------
# The on-disk result store.
# ----------------------------------------------------------------------


def config_fingerprint(config: SimStudyConfig) -> str:
    """Stable hash of a study config, for campaign-directory validation."""
    record = dataclasses.asdict(config)
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CampaignStore:
    """One JSON artifact per completed cell under a campaign directory.

    Layout::

        <directory>/campaign.json            # manifest: format + config fingerprint
        <directory>/cell-<key>.json          # one per completed cell
        <directory>/telemetry.jsonl          # repro-telemetry-v1, one line per computed cell
        <directory>/events.jsonl             # the shards' event stream (dispatch.events)
        <directory>/leases/                  # in-flight cell claims (dispatch.queue)

    The manifest pins the config fingerprint so a directory can only be
    resumed with the exact configuration that started it; cell writes
    are atomic (temp file + rename), so a killed campaign never leaves
    a truncated artifact behind.  Telemetry is observational sidecar
    data: it never enters the fingerprint, and
    :meth:`merge_telemetry_summary` folds its totals back into the
    manifest when a campaign finishes.
    """

    MANIFEST = "campaign.json"
    MANIFEST_FORMAT = "repro-campaign-v1"
    TELEMETRY = "telemetry.jsonl"

    def __init__(self, directory: str | pathlib.Path, config: SimStudyConfig) -> None:
        self.directory = pathlib.Path(directory)
        self.config = config
        self.fingerprint = config_fingerprint(config)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / self.MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            if manifest.get("format") != self.MANIFEST_FORMAT:
                raise ValueError(
                    f"{manifest_path}: not a campaign manifest "
                    f"(format={manifest.get('format')!r})"
                )
            if manifest.get("fingerprint") != self.fingerprint:
                raise ValueError(
                    f"{self.directory}: campaign was started with a different "
                    "SimStudyConfig; refusing to mix results (use a fresh "
                    "directory or the original configuration)"
                )
        else:
            from .dispatch.registry import study_tag  # deferred: registry imports us

            payload = {
                "format": self.MANIFEST_FORMAT,
                "study": study_tag(config),
                "fingerprint": self.fingerprint,
                "config": dataclasses.asdict(config),
            }
            _atomic_write_text(manifest_path, json.dumps(payload, indent=2))

    def path_for_key(self, key: str) -> pathlib.Path:
        return self.directory / f"cell-{key}.json"

    def path_for(self, spec: CellSpec) -> pathlib.Path:
        return self.path_for_key(spec.key)

    def has(self, key: str) -> bool:
        """Whether the cell with this key already has an artifact."""
        return self.path_for_key(key).exists()

    def load(self, spec: CellSpec) -> CellResult | None:
        """The stored result for ``spec``, or ``None`` if not completed."""
        from .io import load_cell_json  # deferred: io imports this module

        path = self.path_for(spec)
        if not path.exists():
            return None
        return load_cell_json(path)

    def save(self, spec: CellSpec, cell: CellResult) -> None:
        from .io import cell_to_payload  # deferred: io imports this module

        _atomic_write_text(
            self.path_for(spec), json.dumps(cell_to_payload(cell), indent=2)
        )

    def save_if_absent(self, spec: CellSpec, cell: CellResult) -> bool:
        """Persist ``cell`` unless an artifact already exists.

        First-writer-wins completion for competing shards: the loser of
        a double computation leaves the winner's artifact (and its
        mtime, which the resume tests pin) untouched.  Safe because
        cells are pure — both writers hold byte-identical payloads, so
        even the unlocked check-then-write race cannot corrupt the
        store.  Returns whether this call wrote the artifact.
        """
        if self.has(spec.key):
            return False
        self.save(spec, cell)
        return True

    def completed_keys(self) -> set[str]:
        """Keys of every cell with a stored artifact."""
        return {
            path.stem.removeprefix("cell-")
            for path in sorted(self.directory.glob("cell-*.json"))
        }

    # -- telemetry sidecar --------------------------------------------

    @property
    def telemetry_path(self) -> pathlib.Path:
        return self.directory / self.TELEMETRY

    def record_telemetry(self, record: dict) -> None:
        """Append one cell's telemetry line (parent process only)."""
        append_telemetry(self.telemetry_path, record)

    def load_telemetry(self) -> list[dict]:
        """Every telemetry record written so far (empty if none)."""
        if not self.telemetry_path.exists():
            return []
        return read_telemetry(self.telemetry_path)

    def merge_telemetry_summary(self) -> dict | None:
        """Fold telemetry totals into the manifest; returns the summary.

        Re-run safe: the summary is recomputed from the whole JSONL
        file, so a resumed campaign's manifest reflects every cell ever
        computed in the directory.  Returns ``None`` (and leaves the
        manifest untouched) when no telemetry exists.

        This is a read-modify-write of the manifest, so it belongs to
        whoever *finishes* a campaign — :func:`run_campaign` merges
        once after all its shards exit, and a CLI worker merges after
        its grid-complete run loop returns.  Shards never merge
        mid-sweep.  Concurrent finishers (several CLI workers ending
        near-simultaneously) stay safe — each write is atomic and last
        writer wins — but the loser's late telemetry lines may be
        missing from the embedded summary until the next merge (any
        resume, or calling this again) recomputes it from the file.
        """
        records = self.load_telemetry()
        if not records:
            return None
        summary = summarize_cells(records)
        manifest_path = self.directory / self.MANIFEST
        manifest = json.loads(manifest_path.read_text())
        manifest["telemetry"] = summary
        _atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
        return summary


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically via a writer-unique temp file.

    The temp name embeds the pid so concurrent writers — shards
    double-completing a cell, or several finishers folding the manifest
    summary — never share a temp file: each ``os.replace`` installs its
    own fully written bytes, and the target is always some writer's
    complete payload (last writer wins).  A shared temp name would let
    one writer rename the file out from under another mid-write,
    installing a truncated artifact or crashing on the lost rename.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Progress reporting.
# ----------------------------------------------------------------------


class CampaignProgress:
    """Per-cell completion lines with elapsed wall time and a crude ETA.

    Lease-aware: a campaign may report the same cell more than once
    (a lease expired, the retry and the original both finished) and
    may report retries that are pure re-queued work.  The rate
    estimate divides elapsed time by *unique* completed cells — a
    duplicate completion neither advances the count nor skews the ETA,
    and :meth:`cell_retried` lines are informational only.

    The clock is injectable for tests; the default is the sanctioned
    host clock from :mod:`repro.obs.profile`, which is operator-facing
    reporting only — simulated time never flows through this class.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        self._clock = wall_clock if clock is None else clock
        self._echo = _echo_stderr if echo is None else echo
        self._total = 0
        self._done = 0
        self._computed_keys: set[str] = set()
        self._start = 0.0

    def start(self, total: int) -> None:
        self._total = total
        self._done = 0
        self._computed_keys = set()
        self._start = self._clock()
        self._echo(f"campaign: {total} cells")

    def cell_done(self, spec: CellSpec, *, skipped: bool) -> None:
        label = f"n={spec.n} {spec.scheme} {spec.beamwidth_deg:g}dg"
        if skipped:
            self._done += 1
            self._echo(f"[{self._done}/{self._total}] {label}  cached, skipped")
            return
        if spec.key in self._computed_keys:
            # The losing half of a double completion: the cell is
            # already counted, so neither the progress fraction nor
            # the rate estimate may move.
            self._echo(f"{label}  duplicate completion (lease retry), ignored")
            return
        self._done += 1
        self._computed_keys.add(spec.key)
        elapsed = self._clock() - self._start
        remaining = self._total - self._done
        eta = (elapsed / len(self._computed_keys)) * remaining
        self._echo(
            f"[{self._done}/{self._total}] {label}  "
            f"elapsed {elapsed:.1f}s  eta {eta:.1f}s"
        )

    def cell_retried(self, spec: CellSpec, *, attempt: int) -> None:
        """Note a cell re-queued after its worker's lease expired."""
        label = f"n={spec.n} {spec.scheme} {spec.beamwidth_deg:g}dg"
        self._echo(f"{label}  re-queued (attempt {attempt}, lease expired)")


def _echo_stderr(message: str) -> None:
    print(message, file=sys.stderr)


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------


def run_campaign(
    config: SimStudyConfig,
    *,
    workers: int | None = 1,
    directory: str | pathlib.Path | None = None,
    progress: CampaignProgress | None = None,
    telemetry: bool = True,
    worker: Callable[..., CellResult] | None = None,
) -> list[CellResult]:
    """Run (or resume) a study grid; results follow :func:`grid_specs` order.

    The one executor of every study: the store at ``directory`` (a
    temporary one when ``None``) is worked by ``min(workers, pending
    cells)`` :class:`~repro.experiments.dispatch.ShardRunner` shards —
    one in this process, more in a process pool — leasing cells,
    streaming events and surviving each other's crashes; then every
    cell is loaded back from the store.  Results are identical however
    many shards ran, because every cell is a pure function of its
    :class:`CellSpec`.

    The config's class picks the study's cell worker from the study
    table, so ``run_campaign(config)`` runs any registered study the
    same way; ``worker`` overrides it (a top-level function, since pool
    shards pickle it) and an unregistered class without one is a
    ``ValueError``.  ``workers=None`` reads ``REPRO_WORKERS`` (default
    1).  ``progress`` gets one line per skipped cell up front and one
    per completion, retry or import as the shards report it.  With a
    ``directory``, per-cell telemetry JSONL accumulates next to the
    cell artifacts and its totals are merged into the manifest;
    ``telemetry=False`` switches all observation off (results are
    identical either way).
    """
    import tempfile

    from .dispatch.shard import ShardRunner

    if workers is None:
        workers = workers_from_environment()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if worker is None:
        from .dispatch.registry import study_for

        worker = study_for(config).worker
    specs = grid_specs(config)
    with ExitStack() as stack:
        store = CampaignStore(
            directory
            if directory is not None
            else stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-campaign-")
            ),
            config,
        )
        pending = {spec.key: spec for spec in specs if not store.has(spec.key)}
        observe = None
        if progress is not None:
            progress.start(len(specs))
            for spec in specs:
                if spec.key not in pending:
                    progress.cell_done(spec, skipped=True)
            observe = functools.partial(_observe_event, progress, pending)
        shards = min(workers, len(pending))
        if shards == 1:
            ShardRunner(
                store.directory,
                config,
                shard_id="0",
                worker=worker,
                telemetry=telemetry,
                observer=observe,
            ).run()
        elif shards > 1:
            _run_pool(store, worker, telemetry, shards, observe)
        if telemetry and directory is not None:
            store.merge_telemetry_summary()
        cells = [store.load(spec) for spec in specs]
    missing = [spec.key for spec, cell in zip(specs, cells) if cell is None]
    if missing:  # pragma: no cover - shards return only on a full grid
        raise RuntimeError(f"shards finished but {missing} are missing")
    return cells


def _run_pool(
    store: CampaignStore,
    worker: Callable[..., CellResult],
    telemetry: bool,
    shards: int,
    observe: Callable[[dict], None] | None,
) -> None:
    """Work ``store`` with ``shards`` pool processes, tailing their events.

    A shard that raises (a real error, not a crash the lease protocol
    absorbs) fails the run at once: its lease is already released, so
    peers retrying the cell fail fast too, and unstarted shards are
    cancelled.
    """
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    from .dispatch.events import EVENTS_FILENAME, tail_events
    from .dispatch.shard import run_shard

    events_path = store.directory / EVENTS_FILENAME
    # Resumed stores keep old logs: start tailing at the current end of
    # file, so only this run's events drive progress.
    offset = events_path.stat().st_size if events_path.exists() else 0
    with ProcessPoolExecutor(max_workers=shards) as pool:
        futures = [
            pool.submit(
                run_shard,
                str(store.directory),
                store.config,
                str(index),
                worker,
                telemetry,
            )
            for index in range(shards)
        ]
        while True:
            done, running = wait(futures, timeout=0.05, return_when=FIRST_EXCEPTION)
            if observe is not None:
                events, offset = tail_events(events_path, offset)
                for record in events:
                    observe(record)
            for future in done:
                error = future.exception()
                if error is not None:
                    for other in futures:
                        other.cancel()
                    raise error
            if not running:
                return


def _observe_event(
    progress: CampaignProgress, by_key: dict[str, CellSpec], record: dict
) -> None:
    """Relay one shard event about a pending cell to ``progress``."""
    spec = by_key.get(record.get("key"))
    if spec is None:
        return
    event = record.get("event")
    if event in ("cell-completed", "cell-imported"):
        progress.cell_done(spec, skipped=False)
    elif event == "cell-retry":
        progress.cell_retried(spec, attempt=record.get("attempt", 1))
