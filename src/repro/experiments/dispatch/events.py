"""Streaming campaign results: an append-only JSONL event log.

Every shard appends scheduling events — shard lifecycle, per-cell
completions, retries, dedup imports — to ``events.jsonl`` next to the
cell artifacts, and any process may *tail* the file to watch a sweep
that is still running (``repro campaign-watch``, or
:func:`~repro.experiments.campaign.run_campaign`'s live progress lines
when it runs several shards).  Figures can therefore render
incrementally: a cell-completed event names an artifact that is already
durably on disk by the time the line appears.

Writes are one ``O_APPEND`` ``write`` system call per event, so
concurrent shards interleave whole lines; readers skip anything else
defensively.  Each shard stamps its events with a per-shard ``seq``
counter — within one shard, event order is total and gap-free (the
ordering the scheduler tests pin); across shards, file order is arrival
order.

Like telemetry, the event log is observational sidecar data: it never
enters the campaign fingerprint, and its timestamps (epoch seconds, the
cross-process clock) make it host-dependent by nature — byte-identity
contracts cover manifests and cell artifacts, not this file.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterator

from ...obs.profile import epoch_seconds

__all__ = [
    "EVENTS_FILENAME",
    "EventLog",
    "read_events",
    "tail_events",
    "follow_events",
    "watch_campaign",
    "WatchSummary",
]

#: The event log's filename inside a campaign directory.
EVENTS_FILENAME = "events.jsonl"


class EventLog:
    """Appends schema-light event lines for one shard.

    ``emit`` returns the record it wrote, already stamped with the
    shard id, a monotonically increasing per-shard ``seq``, and an
    epoch timestamp from the injectable clock.  ``observer``, if given,
    sees each record right after it is written — how an in-process
    shard drives its caller's progress lines without tailing the file.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        *,
        shard: str | None = None,
        clock: Callable[[], float] | None = None,
        observer: Callable[[dict], None] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.shard = shard
        self._clock = epoch_seconds if clock is None else clock
        self._observer = observer
        self._seq = 0

    def emit(self, event: str, **fields) -> dict:
        """Append one event line atomically; returns the record."""
        if not event:
            raise ValueError("events need a non-empty name")
        self._seq += 1
        record = {"event": event, "ts": round(self._clock(), 6), **fields}
        if self.shard is not None:
            record["shard"] = self.shard
            record["seq"] = self._seq
        data = (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode()
        fd = os.open(str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        if self._observer is not None:
            self._observer(record)
        return record


def _parse_lines(text: str) -> list[dict]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn or foreign line; the log is best-effort
        if isinstance(record, dict) and "event" in record:
            records.append(record)
    return records


def read_events(path: str | pathlib.Path) -> list[dict]:
    """Every event currently in the log, in append order (empty if none)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    return _parse_lines(path.read_text())


def tail_events(
    path: str | pathlib.Path, offset: int = 0
) -> tuple[list[dict], int]:
    """Events appended after byte ``offset``: ``(events, new offset)``.

    The incremental form of :func:`read_events`: a poll loop threads
    the returned offset back in and never re-parses the log's prefix,
    so following a long sweep costs O(new events) per poll instead of
    O(whole file).  Only complete lines are consumed — the offset never
    advances past a line still being appended, so a torn tail is
    re-read (whole) on the next call.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [], offset
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    cut = chunk.rfind(b"\n")
    if cut < 0:
        return [], offset
    complete = chunk[: cut + 1].decode(errors="replace")
    return _parse_lines(complete), offset + cut + 1


def follow_events(
    path: str | pathlib.Path,
    *,
    poll_seconds: float = 0.2,
    sleep: Callable[[float], None] | None = None,
    done: Callable[[], bool] | None = None,
) -> Iterator[dict]:
    """Tail the event log: yield events as shards append them.

    Yields every complete line from the start of the file, then polls
    for growth (via :func:`tail_events`, so each poll reads only what
    was appended).  Stops when ``done()`` returns true *and* the log
    has been drained past its current end (so a consumer never misses
    the final events of a finishing sweep).  With no ``done`` callback
    the generator follows forever — callers bound it
    (``campaign-watch`` stops on grid completion or timeout).
    """
    import time

    path = pathlib.Path(path)
    sleep = time.sleep if sleep is None else sleep
    offset = 0
    while True:
        events, offset = tail_events(path, offset)
        yield from events
        if done is not None and done():
            return
        sleep(poll_seconds)


@dataclass(frozen=True)
class WatchSummary:
    """What a watch saw: unique completions vs the grid total."""

    total: int
    completed: int
    imported: int
    retries: int

    @property
    def finished(self) -> bool:
        return self.completed >= self.total


def watch_campaign(
    directory: str | pathlib.Path,
    *,
    follow: bool = True,
    poll_seconds: float = 0.5,
    timeout: float | None = None,
    echo: Callable[[str], None] = print,
    clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] | None = None,
) -> WatchSummary:
    """Stream a campaign's progress from its event log.

    Reads the grid size from the store manifest, then prints one line
    per *unique* cell completion (double completions from lease races
    are folded away) with a completion-rate ETA computed purely from
    event timestamps — a watcher on another host needs no shared clock.
    ``follow=False`` drains the log once and returns; otherwise the
    watch ends when every grid cell has completed or ``timeout`` host
    seconds elapse.
    """
    from ..campaign import CampaignStore

    directory = pathlib.Path(directory)
    manifest_path = directory / CampaignStore.MANIFEST
    if not manifest_path.exists():
        raise ValueError(f"{directory}: no campaign manifest to watch")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != CampaignStore.MANIFEST_FORMAT:
        raise ValueError(
            f"{directory}: not a campaign store "
            f"(format={manifest.get('format')!r})"
        )
    config = manifest.get("config", {})
    total = (
        len(config.get("n_values", ()))
        * len(config.get("schemes", ()))
        * len(config.get("beamwidths_deg", ()))
    )
    clock = epoch_seconds if clock is None else clock
    started = clock()
    completed: set[str] = set()
    imported = retries = 0
    first_ts: float | None = None

    def expired() -> bool:
        return timeout is not None and clock() - started >= timeout

    def finished() -> bool:
        return not follow or len(completed) >= total or expired()

    for record in follow_events(
        directory / EVENTS_FILENAME,
        poll_seconds=poll_seconds,
        sleep=sleep,
        done=finished,
    ):
        event = record.get("event")
        ts = record.get("ts")
        if first_ts is None and isinstance(ts, (int, float)):
            first_ts = float(ts)
        if event == "shard-start":
            echo(
                f"watch: shard {record.get('shard')} joined "
                f"({record.get('cells', '?')} cells in grid)"
            )
        elif event == "cell-retry":
            retries += 1
            echo(
                f"watch: {record.get('key')} re-queued "
                f"(attempt {record.get('attempt')}, lease expired) "
                f"by shard {record.get('shard')}"
            )
        elif event in ("cell-completed", "cell-imported"):
            key = record.get("key")
            if key in completed:
                continue  # the losing side of a double completion
            completed.add(key)
            if event == "cell-imported":
                imported += 1
            eta = ""
            if isinstance(ts, (int, float)) and first_ts is not None:
                elapsed = float(ts) - first_ts
                remaining = total - len(completed)
                if elapsed > 0 and remaining > 0:
                    eta = f"  eta {elapsed / len(completed) * remaining:.1f}s"
            origin = (
                f"imported by shard {record.get('shard')}"
                if event == "cell-imported"
                else f"shard {record.get('shard')}"
            )
            echo(f"[{len(completed)}/{total}] {key}  {origin}{eta}")
        elif event == "shard-done":
            echo(
                f"watch: shard {record.get('shard')} done "
                f"(computed {record.get('completed', '?')}, "
                f"steals {record.get('steals', '?')})"
            )
    summary = WatchSummary(
        total=total,
        completed=len(completed),
        imported=imported,
        retries=retries,
    )
    echo(
        f"watch: {summary.completed}/{summary.total} cells"
        + (f", {summary.imported} imported" if summary.imported else "")
        + (f", {summary.retries} retries" if summary.retries else "")
        + ("" if summary.finished else "  (sweep still incomplete)")
    )
    return summary
