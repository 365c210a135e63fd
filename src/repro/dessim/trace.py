"""Structured event tracing.

A lightweight, allocation-conscious trace facility: components emit
``(time, category, node, event, detail)`` records, tests and debugging
sessions filter them afterwards.  Disabled tracers drop records at the
door, and the PHY and MAC hot paths test ``tracer.enabled`` before
calling :meth:`Tracer.record`, so with tracing off they do not even
build the record's detail arguments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: int
    category: str
    node: int
    event: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:>12}ns] n{self.node:<3} {self.category}.{self.event} {extras}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` objects in a bounded ring buffer."""

    def __init__(self, enabled: bool = False, capacity: int | None = 100_000) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.enabled = enabled
        self._records: deque[TraceRecord] = deque(maxlen=capacity)

    def record(
        self,
        time: int,
        category: str,
        node: int,
        event: str,
        **detail: Any,
    ) -> None:
        """Store one record if tracing is enabled."""
        if not self.enabled:
            return
        self._records.append(
            TraceRecord(time=time, category=category, node=node, event=event, detail=detail)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def clear(self) -> None:
        """Drop all stored records."""
        self._records.clear()

    def filter(
        self,
        category: str | None = None,
        node: int | None = None,
        event: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Return records matching all given criteria."""
        result = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            if event is not None and record.event != event:
                continue
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result
