"""A from-scratch discrete-event simulation kernel.

Our stand-in for GloMoSim: an integer-nanosecond clock, a deterministic
calendar-queue scheduler (:class:`~repro.dessim.engine.Simulator`; the
binary heap it replaced is a test oracle under ``tests/dessim``),
restartable :class:`~repro.dessim.timers.Timer` objects for MAC
timeouts, named reproducible random streams
(:class:`~repro.dessim.rng.RngRegistry`) and structured tracing
(:class:`~repro.dessim.trace.Tracer`).
"""

from .engine import Event, SimulationError, Simulator
from .process import Process, spawn
from .rng import RngRegistry
from .timers import Timer
from .trace import TraceRecord, Tracer
from .units import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    microseconds,
    milliseconds,
    seconds,
    to_microseconds,
    to_seconds,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Process",
    "spawn",
    "Timer",
    "RngRegistry",
    "Tracer",
    "TraceRecord",
    "NANOSECOND",
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "microseconds",
    "milliseconds",
    "seconds",
    "to_seconds",
    "to_microseconds",
]
