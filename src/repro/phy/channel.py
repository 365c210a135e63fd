"""The shared single-channel radio medium.

The channel knows every radio's position and, for each transmission,
computes *who can hear it*: exactly the radios whose link budget under
the channel's :mod:`~repro.phy.reception` model says the signal is
audible (for the default unit-disk model: within range ``R``) and
whose bearing from the transmitter lies inside the transmit antenna
pattern (complete attenuation outside the beam, per the paper's
model).  Each audible radio sees a ``signal start`` edge after the
propagation delay and a ``signal end`` edge one air time later, both
delivered by one kernel event per edge for all radios at that delay;
everything else — collision detection, corruption, capture, deafness
while transmitting — is the receiving radio's reception model's
business.

Audibility is resolved through the channel's
:class:`~repro.phy.linkcache.LinkCache` — per-pair geometry cached with
epoch invalidation and sector-indexed per-sender rows — which is
bit-identical to the naive all-radios trig scan.  That scan is kept as
a test oracle, ``tests/phy/naive_channel.py``, which
``tests/phy/test_linkcache.py`` and ``tests/phy/test_fanout_oracle.py``
compare against.  See ``docs/api.md``, "Channel fast path".
"""

from __future__ import annotations

from collections import Counter as CounterDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dessim.engine import Simulator
from .antenna import AntennaPattern
from .frames import Frame, FrameType, PhyParameters
from .linkcache import DEFAULT_SECTORS, Link, LinkCache
from .propagation import Position, UnitDiskPropagation
from .reception.base import ReceptionModel
from .reception.unitdisk import UnitDiskReception

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.metrics import MetricsRegistry
    from .radio import Radio

__all__ = ["Transmission", "Channel", "ChannelStats"]


@dataclass(frozen=True)
class Transmission:
    """One frame in flight on the medium."""

    tx_id: int
    sender: int
    frame: Frame
    pattern: AntennaPattern
    start_ns: int
    airtime_ns: int

    @property
    def end_ns(self) -> int:
        """Time the transmitter stops radiating."""
        return self.start_ns + self.airtime_ns


@dataclass
class ChannelStats:
    """Medium-level accounting, harvested into telemetry after a run."""

    transmissions: int = 0
    frames_by_type: CounterDict[FrameType] = field(default_factory=CounterDict)
    airtime_ns: int = 0
    airtime_by_type_ns: CounterDict[FrameType] = field(default_factory=CounterDict)

    def record(self, frame: Frame, airtime_ns: int) -> None:
        ftype = frame.ftype
        self.transmissions += 1
        self.frames_by_type[ftype] += 1
        self.airtime_ns += airtime_ns
        self.airtime_by_type_ns[ftype] += airtime_ns

    def publish(self, metrics: "MetricsRegistry", prefix: str = "phy") -> None:
        """Accumulate these counters into a telemetry registry.

        Same harvest-don't-increment contract as
        :meth:`repro.mac.stats.MacStats.publish`: the channel counts its
        hot path in this bundle and telemetry harvests the totals after
        a run, so an attached registry costs the transmit path nothing.
        Every frame type is published (zero or not) so snapshot keys are
        stable across runs; iteration follows the ``FrameType`` enum
        order, never insertion order.
        """
        counter = metrics.counter
        counter(f"{prefix}.transmissions").inc(self.transmissions)
        counter(f"{prefix}.airtime_ns").inc(self.airtime_ns)
        for ftype in FrameType:
            counter(f"{prefix}.frames.{ftype.value}").inc(
                self.frames_by_type[ftype]
            )
            counter(f"{prefix}.airtime.{ftype.value}_ns").inc(
                self.airtime_by_type_ns[ftype]
            )


class Channel:
    """Broadcast medium connecting all attached radios."""

    def __init__(
        self,
        sim: Simulator,
        phy: PhyParameters | None = None,
        propagation: UnitDiskPropagation | None = None,
        sectors: int = DEFAULT_SECTORS,
        reception: ReceptionModel | None = None,
    ) -> None:
        """Build the medium.

        Args:
            reception: the who-hears-what physics; ``None`` (default)
                builds a :class:`~repro.phy.reception.unitdisk.
                UnitDiskReception` over ``propagation`` with the PHY's
                legacy ``capture_threshold`` — exactly the
                pre-subsystem channel semantics.  When a model is
                passed, its own propagation is used and ``propagation``
                must be omitted (one source of geometry per medium).
        """
        self.sim = sim
        self.phy = phy if phy is not None else PhyParameters()
        if reception is None:
            reception = UnitDiskReception(
                propagation if propagation is not None else UnitDiskPropagation(),
                capture_threshold=self.phy.capture_threshold,
            )
        elif propagation is not None and propagation is not reception.propagation:
            raise ValueError(
                "pass either a propagation or a reception model, not "
                "conflicting both (the reception model owns its propagation)"
            )
        self.reception = reception
        self.propagation = reception.propagation
        self._radios: dict[int, "Radio"] = {}
        self._next_tx_id = 0
        self.stats = ChannelStats()
        self._cache = LinkCache(reception, self._radios, sectors=sectors)

    # ------------------------------------------------------------------

    def attach(self, radio: "Radio") -> None:
        """Register a radio on the medium.  Node ids must be unique."""
        if radio.node_id in self._radios:
            raise ValueError(f"node id {radio.node_id} already attached")
        self._radios[radio.node_id] = radio
        self._cache.note_attached(radio.node_id)

    def close(self) -> None:
        """Detach every radio (idempotent).

        Each radio holds this channel and the channel holds every radio
        (the link cache shares the same table), so an open medium ties
        the whole PHY into one reference cycle.  Closing closes the
        radios and empties the table; the channel is not meant to be
        used again.
        """
        for radio in self._radios.values():
            radio.close()
        self._radios.clear()

    @property
    def radios(self) -> dict[int, "Radio"]:
        """Attached radios keyed by node id (read-only view by convention)."""
        return self._radios

    @property
    def cache(self) -> LinkCache:
        """The link/geometry cache."""
        return self._cache

    def note_moved(self, node_id: int) -> None:
        """A radio's position changed (``Radio.position``'s setter)."""
        self._cache.note_moved(node_id)

    def audible_entries(
        self, sender: "Radio", pattern: AntennaPattern
    ) -> list[tuple[int, float, int, float]]:
        """``(node_id, bearing, delay_ns, rx_power)`` per audible radio.

        Attach order, through the link cache (the returned list may be
        cache-owned: treat it as read-only).
        """
        return self._cache.audible_entries(sender.node_id, pattern)

    def audible_nodes(self, sender: "Radio", pattern: AntennaPattern) -> list[int]:
        """Node ids that would hear a transmission from ``sender``."""
        return [entry[0] for entry in self.audible_entries(sender, pattern)]

    def neighbors_of(self, node_id: int) -> list[int]:
        """Node ids audible from the given node (omni ground truth)."""
        return self._cache.neighbors_of(node_id)

    def position_of(self, node_id: int) -> Position:
        """Ground-truth position of a node (the oracle neighbor protocol)."""
        return self._radios[node_id].position

    def link(self, src_id: int, dst_id: int) -> Link:
        """Pair geometry from ``src_id`` to ``dst_id`` (cached).

        One lookup serves range, distance, bearing, delay and power —
        the :class:`~repro.mac.neighbors.NeighborTable` point queries
        resolve through this instead of re-deriving trig per call.
        """
        return self._cache.link(src_id, dst_id)

    # ------------------------------------------------------------------

    def transmit(
        self, sender: "Radio", frame: Frame, pattern: AntennaPattern
    ) -> Transmission:
        """Put a frame on the air.

        Schedules the signal start/end edges for every audible radio;
        returns the transmission record (the sender uses it to time its
        own TX-done).
        """
        airtime = self.phy.airtime_ns(frame.size_bytes)
        tx = Transmission(
            tx_id=self._next_tx_id,
            sender=sender.node_id,
            frame=frame,
            pattern=pattern,
            start_ns=self.sim.now,
            airtime_ns=airtime,
        )
        self._next_tx_id += 1
        self.stats.record(frame, airtime)

        # One start and one end event per run of consecutive receivers
        # (attach order) sharing a delay.  Per-receiver events would be
        # contiguous entries of the same buckets, so one callback per
        # run fires in the same order, and whatever a receiver
        # schedules at that time still queues after the whole run.
        # Runs, not all receivers of one delay: that keeps the order
        # even when one receiver's end edge meets another's start.
        # Under the paper's constant delay this is two kernel events.
        radios = self._radios
        schedule = self.sim.schedule_anon
        start = self.on_signal_start
        end = self.on_signal_end
        group: list[tuple["Radio", float]] = []
        group_delay = -1
        for node_id, _bearing, delay, power in self.audible_entries(
            sender, pattern
        ):
            if delay != group_delay:
                if group:
                    schedule(group_delay, start, tx, group)
                    schedule(group_delay + airtime, end, tx, group)
                    group = []
                group_delay = delay
            group.append((radios[node_id], power))
        if group:
            schedule(group_delay, start, tx, group)
            schedule(group_delay + airtime, end, tx, group)
        return tx

    # Fan-out callbacks: one kernel event each, covering a whole run of
    # receivers.  The power was frozen when the frame went on the air.

    def on_signal_start(
        self, tx: Transmission, group: list[tuple["Radio", float]]
    ) -> None:
        """A signal edge reaches every radio of ``group`` at once."""
        for radio, power in group:
            radio.on_signal_start(tx, power)

    def on_signal_end(
        self, tx: Transmission, group: list[tuple["Radio", float]]
    ) -> None:
        """A signal stops impinging on every radio of ``group``."""
        for radio, _power in group:
            radio.on_signal_end(tx)
