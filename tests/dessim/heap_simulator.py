"""The binary-heap scheduler: the calendar queue's test oracle.

:class:`repro.dessim.Simulator` (the calendar queue, "wheel") replaced
this engine and claims its exact ``(time, seq)`` determinism contract.
The oracle lives here, under ``tests/``, and is swapped in where a test
compares the two: the kernel fuzz suite
(``test_scheduler_equivalence.py``), and full network runs that patch
it into the network module::

    monkeypatch.setattr(repro.net.network, "Simulator", HeapSimulator)

Such patches reach only the test process, so campaign runs compared
this way use ``workers=1``.
"""

from heapq import heappop, heappush
from typing import Any, Callable

from repro.dessim.engine import (
    _CLOSED_CALENDAR,
    _FIRED,
    _PENDING,
    Event,
    SimulationError,
    Simulator,
)


class HeapSimulator(Simulator):
    """The original binary-heap scheduler, kept as the bit-exactness
    oracle.

    Same public API and same observable behavior as :class:`Simulator`
    — identical ``(time, seq)`` firing order, identical
    ``pending_events`` accounting, identical validation — implemented
    as a heap of ``(time, sequence, Event)`` triples where cancelled
    events stay queued and are skipped on pop.  Not optimized further
    on purpose: its job is to stay simple and obviously correct.
    """

    def __init__(self, metrics=None) -> None:
        super().__init__(metrics)
        self._queue: list[tuple[int, int, Event]] = []

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        if type(delay) is not int:
            raise SimulationError(
                f"delay must be an int (ns), got {type(delay).__name__}"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        self._check_open()
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, event))
        self._seq = seq + 1
        self._pending += 1
        return event

    def schedule_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> Event:
        if type(time) is not int:
            raise SimulationError(
                f"event times must be integers (ns), got {type(time).__name__}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._check_open()
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, event))
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
        """Cancel-then-schedule, consuming one sequence number — the
        exact dance :class:`~repro.dessim.Timer` performed by hand on
        this engine before the wheel existed."""
        if previous is not None:
            previous.cancel()
        return self.schedule(delay, callback, *args)

    def schedule_anon(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> None:
        """Plain schedule without returning the handle (no pooling: the
        oracle keeps allocation simple and lets garbage collection do
        its thing)."""
        self.schedule(delay, callback, *args)

    def close(self) -> None:
        super().close()
        self._queue = []

    def _check_open(self) -> None:
        if self._buckets is _CLOSED_CALENDAR:
            raise SimulationError("simulator is closed")

    def run(self, until: int | None = None) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._check_open()
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} before now={self._now}"
            )
        hook = self.dispatch_hook
        self._running = True
        processed_before = self._events_processed
        scheduled_before = self._seq
        cancelled_before = self._cancelled_total
        queue = self._queue
        pop = heappop
        horizon = until
        try:
            while queue:
                time, _seq, event = queue[0]
                if horizon is not None and time > horizon:
                    break
                pop(queue)
                if event._state != _PENDING:
                    continue
                event._state = _FIRED
                self._pending -= 1
                self._now = time
                self._events_processed += 1
                if hook is None:
                    event.callback(*event.args)
                else:
                    hook(event)
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
            if self._metrics is not None:
                self._harvest(
                    processed_before,
                    scheduled_before,
                    cancelled_before,
                    self._buckets_created,
                    self._event_reuse,
                )


#: Both engines by name, for parametrized tests.
ENGINES: dict[str, type[Simulator]] = {"wheel": Simulator, "heap": HeapSimulator}
