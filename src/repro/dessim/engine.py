"""The discrete-event simulation engine.

:class:`Simulator` is a calendar queue keyed by *exact* absolute
timestamp: a dict of per-timestamp FIFO buckets plus a small int-heap
of the distinct times.  MAC workloads cluster heavily on slot
boundaries, so the heap shrinks by the clustering factor and every
same-time event costs one list append.  FIFO bucket order *is* the
``(time, seq)`` determinism contract — events scheduled earlier at the
same timestamp fire first — with no per-event comparison at all.  A
bucket holding a single event is stored as the event itself (no list),
which keeps the uncontended case as lean as a heap push.  Cancellation
is an O(1) tombstone reclaimed when its bucket drains, so cancelled
timers leave no structure the pop path must wade through, and
:meth:`Simulator.reschedule` re-links a fired event's own object in
place, so a timer re-armed after its last expiry fired allocates
nothing: each MAC timer (IFS, backoff countdown, CTS/ACK timeouts)
does this once per contention round or handshake.  Anonymous
fire-and-forget events (:meth:`Simulator.schedule_anon`) recycle
through a free-list pool.  The dict has an unbounded horizon, so
there is no overflow wheel and no promotion step for far-future
events — a far-future timestamp is just another dict key.

The binary heap of ``(time, sequence, Event)`` triples this engine
replaced is kept as a test oracle, ``tests/dessim/heap_simulator.py``:
same seed ⇒ identical event order, identical stats, byte-identical
artifacts.  The fuzz suite in ``tests/dessim/test_scheduler_equivalence.py``
pins that, and the network-cell, campaign-artifact, trace-pin and
golden-cell-hash tests run under both engines.

This is our substitute for GloMoSim's kernel: the paper's experiments
need nothing beyond sequential event-driven execution over a few dozen
nodes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, NoReturn

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from ..obs.metrics import MetricsRegistry

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (scheduling into the past, etc.)."""


# Event lifecycle states.  One int slot instead of booleans + detachable
# hooks: the sweep decides everything about a bucket entry from a single
# attribute read.  _POOLED marks a pending event owned by the engine's
# free list (no caller holds a handle), so the sweep may recycle it the
# moment it fires.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2
_POOLED = 3

#: Bounds on the recycling pools.  Beyond these sizes the steady-state
#: working set is covered and extra retained objects are dead weight.
_MAX_FREE_LISTS = 64
_MAX_FREE_EVENTS = 512


def _noop() -> None:  # pragma: no cover - pool placeholder, never fired
    return None


class _ClosedCalendar:
    """The calendar of a closed :class:`Simulator`.

    Every scheduling path looks up its timestamp bucket before linking,
    so making that one lookup raise turns any use of a closed simulator
    into a :class:`SimulationError` at no cost to an open one.
    """

    __slots__ = ()

    def get(self, _time: int) -> NoReturn:
        raise SimulationError("simulator is closed")


_CLOSED_CALENDAR: Any = _ClosedCalendar()


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Hold on to the instance to :meth:`Simulator.cancel` it later.
    Cancelling an event that already fired is inert (idempotent), so a
    stale handle can never affect a later event.

    A ``__slots__`` class rather than a dataclass: one Event is
    allocated per scheduled callback (except where the engine reuses
    them), so instance dicts were the kernel's single largest
    allocation cost.
    """

    __slots__ = ("time", "seq", "callback", "args", "_state", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        sim: "Simulator",
        state: int = _PENDING,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._state = state
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self._state == _CANCELLED

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it (idempotent).

        The pending→cancelled transition happens at most once — a late
        cancel on an already-fired event cannot double-decrement the
        pending counter.
        """
        if self._state == _PENDING:
            self._state = _CANCELLED
            sim = self._sim
            sim._pending -= 1
            sim._cancelled_total += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled", "pending")[self._state]
        return (
            f"Event(time={self.time}, seq={self.seq}, "
            f"callback={self.callback!r}, args={self.args!r}, {state})"
        )


class Simulator:
    """A deterministic single-threaded discrete-event scheduler.

    The calendar-queue ("wheel") engine; see the module docstring for
    the design and its test oracle.

    Example::

        sim = Simulator()
        sim.schedule(10, print, "fires at t=10ns")
        sim.run()
    """

    def __init__(self, metrics: "MetricsRegistry | None" = None) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        self._pending: int = 0
        self._cancelled_total: int = 0
        # The calendar: exact timestamp -> bucket.  A bucket is either a
        # single Event (the uncontended case) or a FIFO list of them;
        # `_times` is a heap of the distinct timestamps, pushed once per
        # bucket rather than once per event.
        self._buckets: dict[int, Event | list[Event]] = {}
        self._times: list[int] = []
        # Recycled empty bucket lists and recycled anonymous events.
        self._free_lists: list[list[Event]] = []
        self._free_events: list[Event] = []
        self._buckets_created: int = 0
        self._event_reuse: int = 0
        # Observational dispatch hook (see
        # repro.obs.profile.CallbackProfiler): when set, run() routes
        # every fire through ``hook(event)`` instead of calling the
        # callback directly.  The hook must invoke the callback exactly
        # once; it exists to *time* dispatch, never to steer it.
        self.dispatch_hook: Callable[[Event], None] | None = None
        # Telemetry is harvested (deltas of the existing counters pushed
        # into the registry when run() returns), never incremented per
        # event: the inner loop stays exactly as hot as before whether
        # or not a registry is attached.
        self._metrics = metrics

    # ------------------------------------------------------------------
    # Clock and introspection.
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events.

        A live counter — incremented on schedule, decremented on cancel
        and on fire — rather than a rescan of the whole structure.
        """
        return self._pending

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------

    def _link(self, event: Event, time: int) -> None:
        """Insert ``event`` into its timestamp bucket (FIFO position).

        Inlined by the hot entry points (:meth:`schedule`,
        :meth:`reschedule`, :meth:`schedule_anon`,
        :meth:`~repro.dessim.Timer.start`) — kept as a method for the
        cold ones and as the reference for what they inline.  When a
        single-event bucket gains a second entry, a consumed first
        entry (fired or cancelled) is dropped rather than carried into
        the list: the sweep has already passed it, and re-listing it
        ahead of newer events would replay it out of sequence order.
        """
        buckets = self._buckets
        cur = buckets.get(time)
        if cur is None:
            buckets[time] = event
            heappush(self._times, time)
            self._buckets_created += 1
        elif type(cur) is list:
            cur.append(event)
        else:
            free = self._free_lists
            lst = free.pop() if free else []
            st = cur._state
            if st == _PENDING or st == _POOLED:
                lst.append(cur)
            lst.append(event)
            buckets[time] = lst

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` must be a true ``int`` (``bool`` is explicitly
        rejected even though it subclasses ``int`` — a boolean delay is
        always a bug upstream).
        """
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an int (ns), got {type(delay).__name__}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        buckets = self._buckets
        cur = buckets.get(time)
        if cur is None:
            buckets[time] = event
            heappush(self._times, time)
            self._buckets_created += 1
        elif type(cur) is list:
            cur.append(event)
        else:
            free = self._free_lists
            lst = free.pop() if free else []
            st = cur._state
            if st == _PENDING or st == _POOLED:
                lst.append(cur)
            lst.append(event)
            buckets[time] = lst
        self._seq = seq + 1
        self._pending += 1
        return event

    def schedule_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns."""
        if type(time) is not int:
            raise SimulationError(
                f"event times must be integers (ns), got {type(time).__name__}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        self._link(event, time)
        self._seq = seq + 1
        self._pending += 1
        return event

    def reschedule(
        self,
        previous: Event | None,
        delay: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> Event:
        """Supersede ``previous`` with a fresh arm ``delay`` ns from now.

        The restart-in-place primitive behind :class:`~repro.dessim.Timer`:

        - ``previous`` already fired (the dominant pattern — a MAC's
          CTS timeout armed again at its next RTS, or its backoff at
          the next contention round): its object is
          re-linked in place with a new ``(time, seq)``, zero
          allocation.  Safe because the sweep consumed the fired bucket
          entry, so the object has exactly one live entry again.
        - ``previous`` still pending: it is tombstoned and a fresh
          object is linked.  Reusing the object here would leave *two*
          live bucket entries pointing at it, so the fresh allocation
          is what keeps the wheel bit-exact with the heap oracle.
        - ``previous`` is ``None`` or cancelled: plain schedule.

        Consumes exactly one sequence number, like the cancel+schedule
        pair it replaces.
        """
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an int (ns), got {type(delay).__name__}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        seq = self._seq
        if previous is not None and previous._state == _FIRED:
            event = previous
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event._state = _PENDING
            self._event_reuse += 1
        else:
            if previous is not None and previous._state == _PENDING:
                previous._state = _CANCELLED
                self._pending -= 1
                self._cancelled_total += 1
            event = Event(time, seq, callback, args, self)
        self._link(event, time)
        self._seq = seq + 1
        self._pending += 1
        return event

    def schedule_anon(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule a fire-and-forget callback (no handle, not cancellable).

        The PHY signal fan-out path: the event object comes from and
        returns to an engine-owned free list, so the one start and one
        end event per transmission edge that
        :meth:`repro.phy.Channel.transmit` schedules allocate nothing in
        steady state.  Use only when no caller needs to
        cancel — there is deliberately no way to reach the event again.
        """
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an int (ns), got {type(delay).__name__}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        seq = self._seq
        pool = self._free_events
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event._state = _POOLED
            self._event_reuse += 1
        else:
            event = Event(time, seq, callback, args, self, _POOLED)
        buckets = self._buckets
        cur = buckets.get(time)
        if cur is None:
            buckets[time] = event
            heappush(self._times, time)
            self._buckets_created += 1
        elif type(cur) is list:
            cur.append(event)
        else:
            free = self._free_lists
            lst = free.pop() if free else []
            st = cur._state
            if st == _PENDING or st == _POOLED:
                lst.append(cur)
            lst.append(event)
            buckets[time] = lst
        self._seq = seq + 1
        self._pending += 1

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        O(1): the event becomes a tombstone in its bucket, reclaimed in
        a single skip when the bucket drains — no structure to search,
        no garbage for the pop path to wade through.
        """
        event.cancel()

    def close(self) -> None:
        """Drop the calendar and the recycling pools (idempotent).

        Every event points back at its simulator, and pending events
        hold component callbacks, so a live calendar ties the simulator
        and everything scheduled on it into one reference cycle.
        Closing cuts it.  The clock and counters stay readable;
        scheduling on or running a closed simulator raises
        :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("cannot close() while run() is active")
        self._buckets = _CLOSED_CALENDAR
        self._times = []
        self._free_lists = []
        self._free_events = []

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def _recycle(self, event: Event) -> None:
        """Return a fired pool-owned event to the free list."""
        if len(self._free_events) < _MAX_FREE_EVENTS:
            event.callback = _noop
            event.args = ()
            self._free_events.append(event)

    def run(self, until: int | None = None) -> None:
        """Run until the queue drains or the clock passes ``until`` ns.

        When ``until`` is given, events at ``t <= until`` execute and the
        clock is left at exactly ``until``.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if self._buckets is _CLOSED_CALENDAR:
            raise SimulationError("simulator is closed")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} before now={self._now}"
            )
        if self.dispatch_hook is not None:
            self._run_hooked(until)
            return
        self._running = True
        processed_before = self._events_processed
        scheduled_before = self._seq
        cancelled_before = self._cancelled_total
        buckets_before = self._buckets_created
        reuse_before = self._event_reuse
        # Hot loop: the structures and the horizon are hoisted to
        # locals — attribute reads per event add up over millions of
        # events.  ``self._now`` / ``self._events_processed`` stay live
        # on the instance because callbacks read them mid-run.  The
        # bucket sweep is a plain ``for`` over the list: a CPython list
        # iterator picks up elements appended during iteration, which
        # is exactly the semantics same-time events scheduled from a
        # callback need.
        times = self._times
        buckets = self._buckets
        free_lists = self._free_lists
        free_events = self._free_events
        pop = heappop
        horizon = until
        try:
            while times:
                t = times[0]
                if horizon is not None and t > horizon:
                    break
                entry = buckets[t]
                if type(entry) is list:
                    for event in entry:
                        st = event._state
                        if st == _PENDING:
                            event._state = _FIRED
                            self._pending -= 1
                            self._now = t
                            self._events_processed += 1
                            event.callback(*event.args)
                        elif st == _POOLED:
                            event._state = _FIRED
                            self._pending -= 1
                            self._now = t
                            self._events_processed += 1
                            event.callback(*event.args)
                            if len(free_events) < _MAX_FREE_EVENTS:
                                event.callback = _noop
                                event.args = ()
                                free_events.append(event)
                        # else: tombstone or consumed — skipped, and
                        # reclaimed with the bucket right below.
                    pop(times)
                    del buckets[t]
                    entry.clear()
                    if len(free_lists) < _MAX_FREE_LISTS:
                        free_lists.append(entry)
                else:
                    # Single-event bucket: drained *before* the
                    # callback runs, so a fired event re-linked
                    # elsewhere never lingers as a stale dict value,
                    # and a callback scheduling at this same timestamp
                    # simply creates the bucket afresh.
                    pop(times)
                    del buckets[t]
                    st = entry._state
                    if st == _PENDING:
                        entry._state = _FIRED
                        self._pending -= 1
                        self._now = t
                        self._events_processed += 1
                        entry.callback(*entry.args)
                    elif st == _POOLED:
                        entry._state = _FIRED
                        self._pending -= 1
                        self._now = t
                        self._events_processed += 1
                        entry.callback(*entry.args)
                        if len(free_events) < _MAX_FREE_EVENTS:
                            entry.callback = _noop
                            entry.args = ()
                            free_events.append(entry)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            if self._metrics is not None:
                self._harvest(
                    processed_before,
                    scheduled_before,
                    cancelled_before,
                    buckets_before,
                    reuse_before,
                )

    def _run_hooked(self, until: int | None) -> None:
        """The instrumented run loop: every fire goes through
        ``dispatch_hook(event)``.  Identical observable semantics to
        :meth:`run`, deliberately unoptimized — profiling runs pay for
        what they measure.
        """
        hook = self.dispatch_hook
        assert hook is not None
        self._running = True
        processed_before = self._events_processed
        scheduled_before = self._seq
        cancelled_before = self._cancelled_total
        buckets_before = self._buckets_created
        reuse_before = self._event_reuse
        times = self._times
        buckets = self._buckets
        try:
            while times:
                t = times[0]
                if until is not None and t > until:
                    break
                entry = buckets[t]
                if type(entry) is list:
                    # The same bucket rule as run(): a plain ``for``
                    # that picks up same-time appends and skips
                    # consumed entries by state.
                    for event in entry:
                        st = event._state
                        if st == _PENDING or st == _POOLED:
                            event._state = _FIRED
                            self._pending -= 1
                            self._now = t
                            self._events_processed += 1
                            hook(event)
                            if st == _POOLED:
                                self._recycle(event)
                    heappop(times)
                    del buckets[t]
                    entry.clear()
                    if len(self._free_lists) < _MAX_FREE_LISTS:
                        self._free_lists.append(entry)
                else:
                    heappop(times)
                    del buckets[t]
                    st = entry._state
                    if st == _PENDING or st == _POOLED:
                        entry._state = _FIRED
                        self._pending -= 1
                        self._now = t
                        self._events_processed += 1
                        hook(entry)
                        if st == _POOLED:
                            self._recycle(entry)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            if self._metrics is not None:
                self._harvest(
                    processed_before,
                    scheduled_before,
                    cancelled_before,
                    buckets_before,
                    reuse_before,
                )

    def _harvest(
        self,
        processed_before: int,
        scheduled_before: int,
        cancelled_before: int,
        buckets_before: int,
        reuse_before: int,
    ) -> None:
        metrics = self._metrics
        assert metrics is not None
        metrics.counter("dessim.runs").inc()
        metrics.counter("dessim.events").inc(
            self._events_processed - processed_before
        )
        metrics.counter("dessim.scheduled").inc(self._seq - scheduled_before)
        metrics.counter("dessim.cancelled").inc(
            self._cancelled_total - cancelled_before
        )
        metrics.gauge("dessim.pending").set(self._pending)
        metrics.counter("dessim.wheel.buckets").inc(
            self._buckets_created - buckets_before
        )
        metrics.counter("dessim.wheel.event_reuse").inc(
            self._event_reuse - reuse_before
        )
