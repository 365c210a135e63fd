"""Worker shards: join a campaign store, lease cells, compute, stream.

A :class:`ShardRunner` is one worker's whole lifecycle against a shared
campaign directory: scan the grid in a shard-rotated order (spreading
initial contention), lease pending cells through the
:class:`~repro.experiments.dispatch.queue.WorkQueue`, compute them with
the study's worker function, persist artifacts first-writer-wins, and
stream events.  It is the only way cells get computed:
:func:`~repro.experiments.campaign.run_campaign` runs one in-process
(``workers=1``) or several in a process pool, and ``repro
campaign-worker`` runs one per process on any host sharing the
filesystem — all cooperating on one grid.  A shard that dies mid-cell
loses its lease to the survivors: at once when it ran on their host,
when the lease expires otherwise.

Idempotency is the load-bearing property at every step: cells are pure
functions of their spec, artifact writes are atomic and skipped when
the file already exists, and event consumers deduplicate by key.  A
retried cell therefore costs wasted compute but can never corrupt the
store or change the campaign's results — a sharded, crash-riddled run
of a grid produces cell artifacts and a manifest byte-identical to a
one-shard run (the acceptance contract in ``tests/experiments/
test_dispatch_faults.py`` and CI's fault-injection job).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable, Sequence

from ...obs.metrics import MetricsRegistry
from ...obs.profile import epoch_seconds
from ...obs.telemetry import telemetry_record
from ..campaign import CampaignStore, CellSpec, grid_specs, measure_cell
from .events import EVENTS_FILENAME, EventLog
from .queue import DEFAULT_LEASE_SECONDS, WorkQueue, backoff_seconds
from .registry import config_from_manifest, study_for

__all__ = ["ShardReport", "ShardRunner", "grid_specs", "run_shard"]


@dataclass(frozen=True)
class ShardReport:
    """What one shard did, picklable for pool fan-in."""

    shard: str
    cells_total: int
    computed: int
    imported: int
    skipped: int
    steals: int
    retries: int


class ShardRunner:
    """One worker shard's run loop over a shared campaign store.

    Args:
        directory: the campaign store directory (shared filesystem).
        config: the study configuration.  ``None`` loads it from the
            store manifest and resolves the worker from the manifest's
            ``study`` tag — how CLI workers join without re-stating the
            grid.
        shard_id: this worker's identity in leases and events.
        worker: the study's cell worker (same override as
            ``run_campaign``); defaults to the study table's worker for
            the config's class.
        telemetry: write per-cell ``repro-telemetry-v1`` lines and a
            final shard record with the scheduler counters.  Strictly
            observational — cell artifacts are identical either way.
        lease_seconds: how long a leased cell may go uncompleted
            before other shards steal it.
        poll_seconds: idle sleep between scans while waiting on cells
            leased to other (live) shards.
        attached: read-only sibling stores for fingerprint dedup.
        observer: called with every event record this shard emits,
            right after it is written (see
            :class:`~repro.experiments.dispatch.events.EventLog`).
        clock / sleep: injectable for deterministic scheduler tests.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        config=None,
        *,
        shard_id: str | int,
        worker: Callable | None = None,
        telemetry: bool = True,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.2,
        attached: Sequence[str | pathlib.Path] = (),
        observer: Callable[[dict], None] | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        import json
        import time

        self.shard = str(shard_id)
        if config is None:
            manifest_path = pathlib.Path(directory) / CampaignStore.MANIFEST
            if not manifest_path.exists():
                raise ValueError(
                    f"{directory}: no campaign manifest; create the store "
                    "first (run_campaign with a directory, or CampaignStore)"
                )
            config, study = config_from_manifest(
                json.loads(manifest_path.read_text())
            )
            worker = study.worker if worker is None else worker
        elif worker is None:
            worker = study_for(config).worker
        self.config = config
        self.worker = worker
        self.telemetry = telemetry
        self.poll_seconds = poll_seconds
        self._clock = epoch_seconds if clock is None else clock
        self._sleep = time.sleep if sleep is None else sleep
        self.store = CampaignStore(directory, config)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.queue = WorkQueue(
            self.store,
            shard=self.shard,
            lease_seconds=lease_seconds,
            clock=self._clock,
            metrics=self.metrics,
            attached=attached,
        )
        self.events = EventLog(
            self.store.directory / EVENTS_FILENAME,
            shard=self.shard,
            clock=self._clock,
            observer=observer,
        )

    def _scan_order(self, specs: list[CellSpec]) -> list[CellSpec]:
        """Rotate the canonical order by a stable per-shard offset.

        Pure contention spreading: shards starting together begin
        their scans at different grid cells, so the lease protocol
        sees fewer collisions.  Correctness never depends on it.
        """
        if not specs:
            return specs
        if self.shard.isdigit():
            offset = int(self.shard) % len(specs)
        else:
            offset = sum(self.shard.encode()) % len(specs)
        return specs[offset:] + specs[:offset]

    def run(self) -> ShardReport:
        """Work the grid until every cell has an artifact on disk."""
        specs = grid_specs(self.config)
        order = self._scan_order(specs)
        self.events.emit("shard-start", cells=len(specs))
        computed = imported = skipped = 0
        start = self._clock()
        while True:
            progress = False
            for spec in order:
                key = spec.key
                if self.store.has(key):
                    continue
                if self.queue.import_cell(key):
                    imported += 1
                    progress = True
                    self.events.emit("cell-imported", key=key)
                    continue
                lease = self.queue.try_acquire(key)
                if lease is None:
                    continue
                if lease.attempt > 0:
                    self.events.emit(
                        "cell-retry", key=key, attempt=lease.attempt
                    )
                    self.queue.note_retry()
                    self._sleep(backoff_seconds(key, lease.attempt))
                    if self.store.has(key):
                        # The presumed-dead owner finished during the
                        # backoff — nothing left to recompute.
                        self.queue.release(key)
                        skipped += 1
                        progress = True
                        continue
                cell_start = self._clock()
                try:
                    if self.telemetry:
                        cell, record = measure_cell(self.worker, spec)
                    else:
                        cell, record = self.worker(spec), None
                    wrote = self.store.save_if_absent(spec, cell)
                    if record is not None:
                        self.store.record_telemetry(record)
                    self.events.emit(
                        "cell-completed",
                        key=key,
                        attempt=lease.attempt,
                        recomputed=not wrote,
                        wall_seconds=round(self._clock() - cell_start, 6),
                    )
                finally:
                    # Never exit holding the lease: a worker error
                    # would otherwise park the cell for lease_seconds
                    # before survivors could steal it.  Releasing here
                    # lets them retry (or hit the same failure and
                    # surface it) immediately.
                    self.queue.release(key)
                computed += 1
                progress = True
            if all(self.store.has(spec.key) for spec in specs):
                break
            if not progress:
                # Everything pending is leased to live shards; wait for
                # their artifacts (or their leases) to turn over.
                self._sleep(self.poll_seconds)
        report = ShardReport(
            shard=self.shard,
            cells_total=len(specs),
            computed=computed,
            imported=imported,
            skipped=skipped,
            steals=int(self.metrics.counter("dispatch.steals").value),
            retries=int(self.metrics.counter("dispatch.retries").value),
        )
        self.events.emit(
            "shard-done",
            completed=report.computed,
            imported=report.imported,
            steals=report.steals,
            retries=report.retries,
        )
        if self.telemetry:
            snapshot = self.metrics.snapshot()
            self.store.record_telemetry(
                telemetry_record(
                    "shard",
                    shard=self.shard,
                    cells_computed=computed,
                    cells_imported=imported,
                    wall_seconds=round(self._clock() - start, 6),
                    scheduler=snapshot["counters"],
                )
            )
            # Folding the summary into the manifest is the *caller's*
            # post-grid step (run_campaign, or the CLI worker
            # entrypoint): shards finishing near-simultaneously would
            # race the read-modify-write and lose each other's records.
        return report


def run_shard(
    directory: str,
    config,
    shard_id: str,
    worker: Callable,
    telemetry: bool,
) -> ShardReport:
    """Top-level pool entrypoint (picklable) for ``run_campaign``'s shards."""
    return ShardRunner(
        directory, config, shard_id=shard_id, worker=worker, telemetry=telemetry
    ).run()
