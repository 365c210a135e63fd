"""Service-shaped campaign execution: shards, leases, event streams.

The campaign layer made study grids resumable; this package is how
every campaign executes — on one host or many.  The pieces:

* :mod:`~repro.experiments.dispatch.queue` — the crash-tolerant
  :class:`WorkQueue`: per-cell lease files with expiry, atomic steal of
  leases whose workers died, deterministic retry backoff, and
  fingerprint dedup against attached sibling stores;
* :mod:`~repro.experiments.dispatch.shard` — :class:`ShardRunner`, one
  worker's run loop: :func:`~repro.experiments.campaign.run_campaign`
  runs one in-process or several in a process pool (through
  :func:`run_shard`), and ``repro campaign-worker`` is a thin wrapper;
* :mod:`~repro.experiments.dispatch.events` — the append-only
  ``events.jsonl`` result stream and :func:`watch_campaign`
  (``repro campaign-watch``) for rendering progress mid-sweep;
* :mod:`~repro.experiments.dispatch.registry` — the study table: one
  :class:`Study` row per campaign family, from which default workers,
  manifest ``study`` tags, and CLI workers' config/worker resolution
  all derive.

Determinism contract: same config and seed produce byte-identical cell
artifacts and manifest no matter how many shards ran, crashed, or
raced.
"""

from .events import (
    EVENTS_FILENAME,
    EventLog,
    WatchSummary,
    follow_events,
    read_events,
    tail_events,
    watch_campaign,
)
from .queue import DEFAULT_LEASE_SECONDS, Lease, WorkQueue, backoff_seconds
from .registry import (
    STUDIES,
    Study,
    config_from_manifest,
    resolve_study,
    study_for,
    study_tag,
)
from .shard import ShardReport, ShardRunner, grid_specs, run_shard

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "EVENTS_FILENAME",
    "EventLog",
    "Lease",
    "ShardReport",
    "ShardRunner",
    "STUDIES",
    "Study",
    "WatchSummary",
    "WorkQueue",
    "backoff_seconds",
    "config_from_manifest",
    "follow_events",
    "grid_specs",
    "read_events",
    "resolve_study",
    "study_for",
    "study_tag",
    "run_shard",
    "tail_events",
    "watch_campaign",
]
