"""Restartable named timers on top of the event engine.

MAC protocols live on timeouts — CTS timeout, ACK timeout, DIFS/SIFS
deferral, backoff slots.  A :class:`Timer` wraps the schedule/cancel
dance so protocol code reads declaratively::

    self.cts_timeout = Timer(sim, "cts-timeout", self._on_cts_timeout)
    self.cts_timeout.start(timeout_ns)
    ...
    self.cts_timeout.cancel()      # CTS arrived in time

Restarting follows :meth:`Simulator.reschedule`, the engine's
restart-in-place primitive: on the wheel engine a timer re-armed after
its last expiry fired re-links its *own* event object — no allocation,
no trampoline.  A timer re-armed while still pending, or after a
cancel, leaves that event behind as a tombstone and links a fresh one.
The timer's callback is scheduled directly as the event callback;
pending state is derived from the event's lifecycle flag, so there is
no per-fire bookkeeping frame between the engine and protocol code.

:meth:`Timer.start` on the wheel engine is the kernel's single hottest
entry point: a contending MAC arms its IFS timer on every idle edge of
the medium (and freezes it on every busy one), then arms one backoff
countdown and one CTS or ACK timeout per handshake attempt.  So the
wheel's reschedule body is inlined here rather than called — the
method *is* ``Simulator.reschedule`` minus one stack frame, with the
callback write skipped because a timer's callback never changes.  Any
other engine (a subclass, such as the heap oracle the tests swap in)
goes through its ``reschedule`` method unchanged.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from .engine import (
    _CANCELLED,
    _FIRED,
    _PENDING,
    _POOLED,
    Event,
    SimulationError,
    Simulator,
)

__all__ = ["Timer"]


def _closed(*_args: Any) -> None:
    raise SimulationError("timer is closed")


class Timer:
    """A cancellable, restartable one-shot timer.

    Restarting a pending timer cancels the previous expiry; the timer
    fires at most once per :meth:`start`.

    ``__slots__`` matters: a contending MAC arms or cancels a timer on
    every medium edge, making start/cancel churn the kernel's hottest
    caller after the event loop itself.
    """

    __slots__ = ("_sim", "name", "_callback", "_event", "_wheel")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        callback: Callable[..., None],
    ) -> None:
        self._sim = sim
        self.name = name
        self._callback = callback
        # The last event armed for this timer.  Kept after firing so
        # the engine can re-link it in place on the next start(); a
        # cancelled event stays behind as a bucket tombstone and the
        # next start() gets a fresh object.
        self._event: Event | None = None
        # Exact-type check, decided once: the inlined fast path in
        # start() manipulates wheel internals and must never run
        # against the heap oracle or a Simulator subclass.
        self._wheel = type(sim) is Simulator

    @property
    def pending(self) -> bool:
        """Whether the timer is armed and has not yet fired."""
        event = self._event
        return event is not None and event._state == _PENDING

    @property
    def expiry(self) -> int | None:
        """Absolute expiry time in ns, or ``None`` when idle."""
        event = self._event
        if event is not None and event._state == _PENDING:
            return event.time
        return None

    @property
    def remaining(self) -> int | None:
        """Nanoseconds until expiry, or ``None`` when idle."""
        event = self._event
        if event is not None and event._state == _PENDING:
            return event.time - self._sim.now
        return None

    def start(self, delay: int, *args: Any) -> None:
        """Arm (or re-arm) the timer ``delay`` ns from now."""
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an int (ns), got {type(delay).__name__}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        sim = self._sim
        if not self._wheel:
            self._event = sim.reschedule(self._event, delay, self._callback, args)
            return
        # Inlined Simulator.reschedule (validation done above).  A
        # fired event is re-linked in place; a still-pending one is
        # tombstoned and replaced, exactly as the engine method does.
        time = sim._now + delay
        seq = sim._seq
        event = self._event
        if event is not None and event._state == _FIRED:
            event.time = time
            event.seq = seq
            event.args = args
            event._state = _PENDING
            sim._event_reuse += 1
        else:
            if event is not None and event._state == _PENDING:
                event._state = _CANCELLED
                sim._pending -= 1
                sim._cancelled_total += 1
            event = Event(time, seq, self._callback, args, sim)
            self._event = event
        buckets = sim._buckets
        cur = buckets.get(time)
        if cur is None:
            buckets[time] = event
            heappush(sim._times, time)
            sim._buckets_created += 1
        elif type(cur) is list:
            cur.append(event)
        else:
            free = sim._free_lists
            lst = free.pop() if free else []
            st = cur._state
            if st == _PENDING or st == _POOLED:
                lst.append(cur)
            lst.append(event)
            buckets[time] = lst
        sim._seq = seq + 1
        sim._pending += 1

    def cancel(self) -> None:
        """Disarm the timer if pending (idempotent, inert after fire)."""
        event = self._event
        if event is not None:
            event.cancel()

    def close(self) -> None:
        """Disarm and drop the callback and the last event (idempotent).

        The callback is usually a bound method of the object that owns
        this timer, so an open timer and its owner form a reference
        cycle; closing cuts it.  A closed timer is not meant to be
        restarted: its expiry would raise :class:`SimulationError`.
        """
        self.cancel()
        self._event = None
        self._callback = _closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        expiry = self.expiry
        state = f"expires@{expiry}" if expiry is not None else "idle"
        return f"Timer({self.name!r}, {state})"
