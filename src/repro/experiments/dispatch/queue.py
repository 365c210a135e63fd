"""Crash-tolerant work-queue scheduling over a shared campaign store.

The campaign layer's correctness substrate — pure, fingerprinted cells
written atomically — already makes distributed execution *safe*; this
module adds the scheduling that makes it *work*: any number of worker
shards (processes on one host, or hosts sharing a filesystem) lease
cells from the same campaign directory, and a shard that crashes, hangs,
or is SIGKILLed simply loses its leases to the survivors when they
expire — at once for survivors on its own host.

The lease protocol
==================

One lease file per in-flight cell, ``leases/<key>.json``, holding the
owning shard, its host and process id, acquisition/expiry epoch
timestamps, and the attempt number:

* **Acquire** — the lease is materialized with ``os.link`` from a fully
  written temp file, so creation is atomic *with its content*: either
  the link wins (the shard owns the cell) or ``FileExistsError`` says
  another shard got there first.  Readers never observe a partial
  lease.
* **Steal** — a lease whose ``expires`` is in the past belongs to a
  worker presumed dead, and so does one whose owner ran on this host,
  in this pid namespace, under a process id that no longer runs (a
  SIGKILLed shard's lease is taken over at once instead of after
  ``lease_seconds``; leases from other hosts or pid namespaces keep
  the time-based expiry).  A wrong "dead" verdict — a reused pid —
  only costs a recompute, for the reasons below.  The stealing shard
  ``os.replace``-s its own lease over it (attempt + 1) and reads the
  file back; owning the cell means seeing your own nonce after the
  replace.  Two shards racing an
  expired lease resolve to one owner in all but a vanishingly small
  window — and if both *do* compute the cell, determinism makes the
  duplicates byte-identical and the store's first-writer-wins save
  keeps exactly one artifact.  Leases prevent wasted work; purity
  prevents corruption.
* **Release** — completion (or an abandoned claim) unlinks the lease.

Retries back off deterministically: :func:`backoff_seconds` is a pure
function of ``(key, attempt)``, so the schedule is reproducible in
tests and desynchronized across cells without host entropy.

Clocks are epoch seconds (:func:`repro.obs.profile.epoch_seconds` — the
sanctioned cross-process clock) and injectable throughout; nothing here
touches simulated time or simulation results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import socket
from dataclasses import dataclass
from typing import Callable, Sequence

from ...obs.metrics import MetricsRegistry, NULL_REGISTRY
from ...obs.profile import epoch_seconds
from ..campaign import CampaignStore

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "Lease",
    "WorkQueue",
    "backoff_seconds",
]

#: How long a shard may sit on a cell before the others assume it died.
#: Generous relative to a cell's compute time; fault-injection tests
#: and CI shrink it to seconds.
DEFAULT_LEASE_SECONDS = 300.0

#: Schema tag carried by every lease file.  v2 added the owner's
#: ``host`` and ``pid``; v1 leases still load (they expire by time
#: only), while a v1-only reader takes a v2 lease for a contested one.
LEASE_FORMAT = "repro-lease-v2"
_READABLE_FORMATS = (LEASE_FORMAT, "repro-lease-v1")


def backoff_seconds(
    key: str, attempt: int, *, base: float = 0.1, cap: float = 30.0
) -> float:
    """Deterministic retry backoff before recomputing a stolen cell.

    Exponential in ``attempt`` (the number of times the cell's lease
    has already expired), capped at ``cap``, and scaled by a stable
    per-``key`` fraction in ``[0.5, 1.0]`` derived from SHA-256 — so
    concurrent retries of *different* cells desynchronize without any
    host entropy, and the whole schedule is a pure function of its
    arguments (regression-tested as such).  ``attempt == 0`` (a fresh
    claim, nothing to back off from) is 0.0.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if attempt == 0:
        return 0.0
    delay = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(key.encode()).hexdigest()
    fraction = 0.5 + 0.5 * (int(digest[:8], 16) / 0xFFFFFFFF)
    return delay * fraction


@dataclass(frozen=True)
class Lease:
    """One shard's claim on one cell, as persisted in ``leases/``."""

    key: str
    shard: str
    acquired: float
    expires: float
    #: How many earlier leases on this cell expired before this one —
    #: i.e. how many presumed-dead workers the cell has outlived.
    attempt: int
    #: Uniquifies the record so a stealing shard can recognize its own
    #: write when two shards race the same expired lease.
    nonce: str
    #: The owning process's host (hostname plus pid namespace, see
    #: ``_host_identity``) and pid, so a shard sharing its pid space
    #: can tell a crashed owner from a slow one.  Empty/0 on v1 leases.
    host: str = ""
    pid: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {"format": LEASE_FORMAT, **dataclasses.asdict(self)},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Lease":
        payload = json.loads(text)
        if payload.pop("format", None) not in _READABLE_FORMATS:
            raise ValueError("not a lease record")
        return cls(**payload)


class WorkQueue:
    """Leases cells of one campaign store to competing worker shards.

    Scheduler telemetry lands in ``metrics`` under the ``dispatch.*``
    names (leases acquired, expirations observed, steals won, retries
    run, dedup hits); pass a disabled registry to observe nothing.

    ``attached`` names read-only sibling stores (earlier sweeps, other
    hosts' result directories).  They must carry the *same* config
    fingerprint — the fingerprint is the cell's identity, so a cell
    artifact found in any attached store is byte-for-byte the artifact
    this campaign would compute, and :meth:`import_cell` just copies
    it in instead of computing.
    """

    LEASE_DIR = "leases"

    def __init__(
        self,
        store: CampaignStore,
        *,
        shard: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
        attached: Sequence[str | pathlib.Path] = (),
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.store = store
        self.shard = str(shard)
        self.lease_seconds = lease_seconds
        self.host = _host_identity()
        self._clock = epoch_seconds if clock is None else clock
        metrics = NULL_REGISTRY if metrics is None else metrics
        self._leases_acquired = metrics.counter("dispatch.leases")
        self._expirations = metrics.counter("dispatch.lease_expirations")
        self._steals = metrics.counter("dispatch.steals")
        self._retries = metrics.counter("dispatch.retries")
        self._dedup_hits = metrics.counter("dispatch.dedup_hits")
        self.lease_dir = store.directory / self.LEASE_DIR
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.attached = tuple(pathlib.Path(p) for p in attached)
        for directory in self.attached:
            self._validate_attached(directory)

    def _validate_attached(self, directory: pathlib.Path) -> None:
        manifest_path = directory / CampaignStore.MANIFEST
        if not manifest_path.exists():
            raise ValueError(f"{directory}: attached store has no manifest")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != CampaignStore.MANIFEST_FORMAT:
            raise ValueError(
                f"{directory}: not a campaign store "
                f"(format={manifest.get('format')!r})"
            )
        if manifest.get("fingerprint") != self.store.fingerprint:
            raise ValueError(
                f"{directory}: attached store was built from a different "
                "configuration; its cells are not this campaign's cells"
            )

    # -- lease mechanics ----------------------------------------------

    def lease_path(self, key: str) -> pathlib.Path:
        return self.lease_dir / f"{key}.json"

    def read_lease(self, key: str) -> Lease | None:
        """The current lease on ``key``, or ``None`` (absent/corrupt)."""
        try:
            return Lease.from_json(self.lease_path(key).read_text())
        except (OSError, ValueError):
            return None

    def _new_lease(self, key: str, attempt: int, now: float) -> Lease:
        return Lease(
            key=key,
            shard=self.shard,
            acquired=now,
            expires=now + self.lease_seconds,
            attempt=attempt,
            nonce=f"{self.shard}:{now:.6f}:{attempt}",
            host=self.host,
            pid=os.getpid(),
        )

    def _owner_dead(self, lease: Lease) -> bool:
        """Whether ``lease`` is held by a process of our pid space that is gone."""
        return (
            lease.host == self.host and lease.pid > 0 and not _pid_alive(lease.pid)
        )

    def try_acquire(self, key: str) -> Lease | None:
        """Claim ``key``, stealing an expired lease if one is found.

        Returns the lease this shard now holds, or ``None`` when the
        cell is already completed or validly leased elsewhere.  A lease
        counts as expired once its ``expires`` has passed or, on this
        host, once its owning process is gone.  A returned lease with
        ``attempt > 0`` was stolen from a presumed crashed worker —
        callers should honour :func:`backoff_seconds` before
        recomputing.
        """
        if self.store.has(key):
            return None
        path = self.lease_path(key)
        now = self._clock()
        lease = self._new_lease(key, 0, now)
        tmp = path.with_name(f"{path.name}.{self.shard}.tmp")
        tmp.write_text(lease.to_json())
        try:
            os.link(tmp, path)
        except FileExistsError:
            tmp.unlink(missing_ok=True)
            existing = self.read_lease(key)
            if existing is None:
                # Vanished (owner released) or unreadable mid-write:
                # treat as contested and let the next pass retry.
                return None
            if existing.expires > now and not self._owner_dead(existing):
                return None
            return self._steal(key, existing, now)
        tmp.unlink(missing_ok=True)
        self._leases_acquired.inc()
        return lease

    def _steal(self, key: str, expired: Lease, now: float) -> Lease | None:
        """Replace an expired or orphaned lease with our own; None if outraced."""
        self._expirations.inc()
        lease = self._new_lease(key, expired.attempt + 1, now)
        path = self.lease_path(key)
        tmp = path.with_name(f"{path.name}.{self.shard}.tmp")
        tmp.write_text(lease.to_json())
        os.replace(tmp, path)
        check = self.read_lease(key)
        if check is None or check.nonce != lease.nonce:
            return None
        self._leases_acquired.inc()
        self._steals.inc()
        return lease

    def note_retry(self) -> None:
        """Count one re-queued cell actually being recomputed."""
        self._retries.inc()

    def release(self, key: str) -> None:
        """Drop this shard's claim (idempotent; also used on completion)."""
        self.lease_path(key).unlink(missing_ok=True)

    # -- cross-store dedup --------------------------------------------

    def import_cell(self, key: str) -> bool:
        """Copy ``key``'s artifact from an attached store, if any has it.

        Byte-preserving (the artifact is copied verbatim, atomically),
        so the shard-count equivalence contract survives dedup.  Returns
        whether the cell was imported.
        """
        if self.store.has(key):
            return False
        for directory in self.attached:
            source = directory / f"cell-{key}.json"
            if not source.exists():
                continue
            target = self.store.path_for_key(key)
            tmp = target.with_name(f"{target.name}.{self.shard}.tmp")
            tmp.write_bytes(source.read_bytes())
            os.replace(tmp, target)
            self._dedup_hits.inc()
            return True
        return False


def _host_identity() -> str:
    """This process's hostname plus, where procfs shows it, its pid namespace.

    Two processes with equal identities share one pid space, so a pid
    in a lease means the same process to both; containers that share a
    hostname but not a pid namespace get different identities and fall
    back to the time-based expiry.
    """
    try:
        namespace = os.readlink("/proc/self/ns/pid")
    except OSError:
        return socket.gethostname()
    return f"{socket.gethostname()}/{namespace}"


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` of this host still runs.

    A zombie — killed, but not yet reaped by a parent that died with
    it — counts as gone: it will never finish its cell.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:  # no procfs: a signalable pid is a live one
        return True
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"
