"""The transceiver: carrier sense, reception events, deafness.

Semantics implemented here, straight from the paper's assumptions:

* **Omni-directional reception** — a radio decodes whatever impinges on
  it, regardless of the direction it last transmitted in.
* **Deaf while transmitting** — a transmitting node "appears blind to
  other directions": it cannot carrier-sense nor begin decoding a frame
  while its own transmitter is on.  A signal that *starts* during our
  transmission can never be decoded (we missed its preamble), though its
  energy still counts for carrier sense once we stop transmitting.

*What a signal overlap means* — collision-corrupts-everything, SNR
capture, SINR tracking — is delegated to the per-radio
:class:`~repro.phy.reception.base.Receiver` created by the channel's
reception model; this class keeps the counters, the trace records and
the carrier-sense edges.

The radio reports four things upward to the MAC: decoded frames, failed
receptions (for EIFS), medium busy/idle transitions, and transmit
completion.
"""

from __future__ import annotations

import enum
from typing import NoReturn, Protocol

from ..dessim.engine import Simulator
from ..dessim.trace import Tracer
from .antenna import AntennaPattern, OmniAntenna
from .channel import Channel, Transmission
from .frames import Frame
from .propagation import Position
from .reception.base import RxOutcome

__all__ = ["Radio", "RadioState", "MacListener", "RadioError"]


class RadioError(RuntimeError):
    """Raised on physically impossible requests (e.g. TX while TX)."""


class RadioState(enum.Enum):
    IDLE = "idle"
    TRANSMITTING = "transmitting"


# Hoisted enum members: the signal edges run once per signal per radio.
_DELIVERED = RxOutcome.DELIVERED
_FAILED = RxOutcome.FAILED
_TRANSMITTING = RadioState.TRANSMITTING


class _NoMac:
    """Stands in for the MAC until :meth:`Radio.set_mac`: any event raises.

    Lets the signal edges call ``self._mac`` directly, with no
    attached-yet check per edge.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def _missing(self, *args: object) -> NoReturn:
        raise RadioError(f"node {self.node_id}: no MAC attached")

    on_frame_received = on_reception_failed = _missing
    on_medium_busy = on_medium_idle = on_transmit_complete = _missing


class MacListener(Protocol):
    """What a MAC layer must implement to sit on top of a radio."""

    def on_frame_received(self, frame: Frame) -> None:
        """A frame addressed to anyone was decoded successfully."""

    def on_reception_failed(self) -> None:
        """A reception ended in garbage (collision) — EIFS trigger."""

    def on_medium_busy(self) -> None:
        """Carrier sense went from idle to busy."""

    def on_medium_idle(self) -> None:
        """Carrier sense went from busy to idle."""

    def on_transmit_complete(self, frame: Frame) -> None:
        """Our own transmission left the antenna completely."""


class Radio:
    """A single half-duplex transceiver bound to one position."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        position: Position,
        channel: Channel,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self._position = position
        self.channel = channel
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.state = RadioState.IDLE
        self._mac: MacListener = _NoMac(node_id)
        self.receiver = channel.reception.make_receiver()
        # Bound-method aliases: the signal-edge path runs once per
        # (transmission, audible radio) pair and the attribute chain
        # through ``self.receiver`` costs there.
        self._receiver_start = self.receiver.signal_start
        self._receiver_end = self.receiver.signal_end
        # The live-signal table is mutated in place, never replaced, so
        # carrier sense can hold a direct reference.
        self._signals = self.receiver.records
        self._was_busy = False
        # Counters (cheap, always on).
        self.frames_sent = 0
        self.frames_received = 0
        self.receptions_corrupted = 0
        self.receptions_missed = 0
        channel.attach(self)

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    def set_mac(self, mac: MacListener) -> None:
        """Attach the MAC layer that consumes this radio's events."""
        self._mac = mac

    def close(self) -> None:
        """Detach the MAC, which holds this radio (idempotent)."""
        self._mac = _NoMac(self.node_id)

    @property
    def position(self) -> Position:
        """Where this radio currently sits on the plane."""
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        """Move the radio; the channel's link cache sees the epoch bump.

        Mobility models assign here (random-waypoint steps land on this
        setter unchanged); the channel lazily invalidates only this
        node's cached geometry rows.
        """
        self._position = value
        self.channel.note_moved(self.node_id)

    @property
    def mac(self) -> MacListener:
        if isinstance(self._mac, _NoMac):
            raise RadioError(f"node {self.node_id}: no MAC attached")
        return self._mac

    # ------------------------------------------------------------------
    # MAC-facing API.
    # ------------------------------------------------------------------

    @property
    def transmitting(self) -> bool:
        return self.state is RadioState.TRANSMITTING

    @property
    def carrier_busy(self) -> bool:
        """Whether the medium appears busy to this node right now.

        Our own transmission counts as busy (the MAC must not start a
        second one), and any impinging signal counts as busy.
        """
        return self.state is _TRANSMITTING or bool(self._signals)

    def transmit(self, frame: Frame, pattern: AntennaPattern | None = None) -> None:
        """Radiate a frame with the given antenna pattern (omni default).

        Going into TX makes us deaf: any reception in progress is
        abandoned (it will not be delivered even if it ends cleanly
        after we finish, because we lost the middle of it).
        """
        if self.transmitting:
            raise RadioError(f"node {self.node_id}: transmit while transmitting")
        if pattern is None:
            pattern = OmniAntenna()

        # Abandon any in-progress decode; the energy stays tracked.
        self.receiver.abandon()

        self.state = RadioState.TRANSMITTING
        self.frames_sent += 1
        tx = self.channel.transmit(self, frame, pattern)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, "phy", self.node_id, "tx-start",
                ftype=frame.ftype.value, dst=frame.dst, tx_id=tx.tx_id,
            )
        # Fire-and-forget (TX-done is never cancelled), so the pooled
        # path applies: one recycled event per transmission.
        self.sim.schedule_anon(tx.airtime_ns, self._finish_transmit, frame)
        self._update_carrier()

    # ------------------------------------------------------------------
    # Channel-facing API.
    # ------------------------------------------------------------------

    def on_signal_start(self, tx: Transmission, power: float = 1.0) -> None:
        """A signal begins impinging on this radio.

        What the overlap (if any) does to receptions in progress is the
        reception model's rule set — collision-corrupts-everything for
        the paper's unit-disk model without a capture threshold, SNR or
        SINR capture otherwise.  Deafness is universal: a signal that
        starts during our own transmission lost its preamble forever.
        """
        deaf = self.state is _TRANSMITTING
        if deaf:
            self.receptions_missed += 1
        decoding = self._receiver_start(tx, power, deaf)
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, "phy", self.node_id, "signal-start",
                src=tx.sender, ftype=tx.frame.ftype.value,
                clean=decoding,
            )
        # The receiver now tracks this signal, so the medium is busy:
        # only the idle-to-busy edge can happen here.
        if not self._was_busy:
            self._was_busy = True
            self._mac.on_medium_busy()

    def on_signal_end(self, tx: Transmission) -> None:
        """A signal stops impinging on this radio."""
        outcome = self._receiver_end(tx, self.state is _TRANSMITTING)
        if outcome is None:  # pragma: no cover - channel never double-ends
            return
        if outcome is _DELIVERED:
            self.frames_received += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.record(
                    self.sim.now, "phy", self.node_id, "rx-ok",
                    src=tx.sender, ftype=tx.frame.ftype.value,
                )
            self._mac.on_frame_received(tx.frame)
        elif outcome is _FAILED:
            # We heard noise start-to-finish: 802.11 reacts with EIFS.
            self.receptions_corrupted += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.record(
                    self.sim.now, "phy", self.node_id, "rx-error",
                    src=tx.sender, ftype=tx.frame.ftype.value,
                )
            self._mac.on_reception_failed()
        # _update_carrier, inlined.
        busy = self.state is _TRANSMITTING or bool(self._signals)
        if busy and not self._was_busy:
            self._was_busy = True
            self._mac.on_medium_busy()
        elif not busy and self._was_busy:
            self._was_busy = False
            self._mac.on_medium_idle()

    # ------------------------------------------------------------------

    def _finish_transmit(self, frame: Frame) -> None:
        self.state = RadioState.IDLE
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, "phy", self.node_id, "tx-end",
                ftype=frame.ftype.value, dst=frame.dst,
            )
        self._mac.on_transmit_complete(frame)
        self._update_carrier()

    def _update_carrier(self) -> None:
        """Emit busy/idle edges to the MAC on state changes."""
        busy = self.state is _TRANSMITTING or bool(self._signals)
        if busy and not self._was_busy:
            self._was_busy = True
            self._mac.on_medium_busy()
        elif not busy and self._was_busy:
            self._was_busy = False
            self._mac.on_medium_idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Radio(node={self.node_id}, state={self.state.value}, "
            f"incoming={len(self.receiver.records)})"
        )
