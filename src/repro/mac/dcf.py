"""IEEE 802.11 DCF (DFWMAC) with pluggable antenna policies.

One state machine serves all three schemes of the paper; the
:class:`~repro.mac.policy.AntennaPolicy` decides, per frame type,
whether to beam at the peer or transmit omni-directionally.

Implemented DCF behaviour:

* physical + virtual carrier sense (NAV from overheard Duration fields),
* DIFS deference, EIFS after garbled receptions,
* binary exponential backoff (CW 31-1023), frozen while the medium is
  busy, post-transmission backoff after every handshake,
* RTS -> SIFS -> CTS -> SIFS -> DATA -> SIFS -> ACK with CTS/ACK
  timeouts and a retry limit,
* responder logic: SIFS-spaced CTS/ACK replies that (per the standard)
  do not carrier-sense, suppression of CTS while the NAV is busy, and
  a DATA-expectation timeout.

Known simplification, documented in DESIGN.md: like GloMoSim 2.0's
802.11 model, we do not implement the 802.11 NAV-reset subtlety for
nodes that overheard an RTS whose handshake never continued.
"""

from __future__ import annotations

import enum
import math
import random
from collections import deque
from typing import Callable

from ..dessim.engine import Simulator
from ..dessim.timers import Timer
from ..dessim.trace import Tracer
from ..phy.frames import FRAME_SIZES, Frame, FrameType
from ..phy.radio import Radio
from .backoff import BackoffManager
from .config import MacParameters
from .nav import Nav
from .neighbors import NeighborTable
from .packet import Packet
from .policy import AntennaPolicy, ORTS_OCTS_POLICY
from .stats import MacStats

__all__ = ["DcfMac", "DcfPhase"]


class DcfPhase(enum.Enum):
    """Initiator-side phase of the DCF state machine."""

    NO_PACKET = "no-packet"        # nothing to send
    ACCESS_WAIT = "access-wait"    # have a packet, medium busy
    ACCESS_IFS = "access-ifs"      # DIFS/EIFS running
    ACCESS_BACKOFF = "backoff"     # counting down slots
    AWAIT_CTS = "await-cts"        # RTS on the air / waiting for CTS
    SEND_DATA = "send-data"        # CTS in hand, SIFS before DATA
    AWAIT_ACK = "await-ack"        # DATA on the air / waiting for ACK


_INITIATION_PHASES = frozenset(
    {
        DcfPhase.NO_PACKET,
        DcfPhase.ACCESS_WAIT,
        DcfPhase.ACCESS_IFS,
        DcfPhase.ACCESS_BACKOFF,
    }
)


class DcfMac:
    """One node's MAC entity.  Implements :class:`repro.phy.MacListener`."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        params: MacParameters,
        neighbor_table: NeighborTable,
        policy: AntennaPolicy = ORTS_OCTS_POLICY,
        beamwidth: float | None = None,
        *,
        rng: random.Random,
        tracer: Tracer | None = None,
    ) -> None:
        """Build one MAC entity.

        Args:
            rng: the node's backoff stream, e.g.
                ``registry.stream(f"mac-{node_id}")``.  Required — a
                silent shared default would let every node draw the
                same backoff sequence and quietly break the paper's
                identical-topology A/B comparisons.
        """
        self.sim = sim
        self.radio = radio
        self.params = params
        self.neighbors = neighbor_table
        self.policy = policy
        self.beamwidth = beamwidth if beamwidth is not None else 2 * math.pi
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.node_id = radio.node_id
        self.stats = MacStats()

        self.backoff = BackoffManager(params, rng)
        self.nav = Nav()
        # Hoisted: the backoff freeze/resume arithmetic runs on every
        # medium transition, and two dataclass-attribute hops add up.
        self._slot_time_ns = params.slot_time_ns
        # Per-PHY timing constants, derived once rather than per frame.
        phy = radio.channel.phy
        self._phy = phy
        self._difs_ns = params.difs_ns
        self._eifs_ns = params.eifs_ns(phy)
        self._cts_timeout_ns = params.cts_timeout_ns(phy)
        self._ack_timeout_ns = params.ack_timeout_ns(phy)
        self._data_start_timeout_ns = params.data_start_timeout_ns(phy)
        self._data_timeout_ns = params.data_timeout_ns(phy)
        self._cts_airtime_ns = phy.frame_airtime_ns(FrameType.CTS)
        self._ack_airtime_ns = phy.frame_airtime_ns(FrameType.ACK)

        self.phase = DcfPhase.NO_PACKET
        self.queue: deque[Packet] = deque()
        self._retries = 0
        self._backoff_remaining = 0
        self._use_eifs = False
        self._next_handshake = 0
        self._current_handshake = -1

        # Responder state.
        self._responding = False
        self._response_peer = -1

        # Timers.
        self._ifs_timer = Timer(sim, f"n{self.node_id}-ifs", self._on_ifs_expired)
        self._slot_timer = Timer(
            sim, f"n{self.node_id}-backoff", self._on_backoff_expired
        )
        self._cts_timer = Timer(sim, f"n{self.node_id}-cts-to", self._on_cts_timeout)
        self._ack_timer = Timer(sim, f"n{self.node_id}-ack-to", self._on_ack_timeout)
        self._data_timer = Timer(
            sim, f"n{self.node_id}-data-to", self._on_data_timeout
        )
        self._data_start_probe = Timer(
            sim, f"n{self.node_id}-data-probe", self._on_data_start_timeout
        )
        self._response_timer = Timer(
            sim, f"n{self.node_id}-sifs-resp", self._fire_response
        )
        # The initiator's own SIFS (CTS received -> DATA) runs on a
        # separate timer so a concurrent responder action (e.g. ACKing
        # a stale DATA under capture physics) can never cancel it.
        self._initiator_timer = Timer(
            sim, f"n{self.node_id}-sifs-data", self._fire_send_data
        )
        self._nav_timer = Timer(sim, f"n{self.node_id}-nav", self._on_nav_expired)
        self._timers = (
            self._ifs_timer,
            self._slot_timer,
            self._cts_timer,
            self._ack_timer,
            self._data_timer,
            self._data_start_probe,
            self._response_timer,
            self._initiator_timer,
            self._nav_timer,
        )
        self._pending_response: Callable[[], None] | None = None

        # Hooks: called with (packet, delivered) when service finishes,
        # and with (frame,) when a DATA frame is received for us.
        self.service_listeners: list[Callable[[Packet, bool], None]] = []
        self.delivery_listeners: list[Callable[[Frame], None]] = []

        radio.set_mac(self)

    # ==================================================================
    # Upper-layer API.
    # ==================================================================

    def enqueue(self, packet: Packet) -> None:
        """Accept a packet for transmission."""
        self.stats.packets_enqueued += 1
        self.queue.append(packet)
        if self.phase is DcfPhase.NO_PACKET:
            self.phase = DcfPhase.ACCESS_WAIT
            self._maybe_begin_ifs()

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    def close(self) -> None:
        """Cut the reference cycles through this MAC (idempotent).

        Its timers hold bound methods of it, a pending SIFS response is
        a closure over it, and the traffic and relay layers it calls
        back through its listener lists hold it in turn.  ``stats``
        and the queue stay readable; the MAC cannot run again.
        """
        for timer in self._timers:
            timer.close()
        self._pending_response = None
        self.service_listeners.clear()
        self.delivery_listeners.clear()

    # ==================================================================
    # Medium access (initiator side).
    # ==================================================================

    def _maybe_begin_ifs(self) -> None:
        """Start the DIFS/EIFS wait if we may contend right now."""
        if self.phase is not DcfPhase.ACCESS_WAIT and self.phase is not DcfPhase.NO_PACKET:
            return
        if self._responding:
            return
        if not self.queue:
            self.phase = DcfPhase.NO_PACKET
            return
        self.phase = DcfPhase.ACCESS_WAIT
        if self.radio.carrier_busy:
            return  # the idle edge will bring us back
        if self.nav.busy(self.sim.now):
            # Physically idle but virtually reserved: wake at NAV expiry.
            self._nav_timer.start(self.nav.remaining(self.sim.now))
            return
        self.phase = DcfPhase.ACCESS_IFS
        self._ifs_timer.start(self._eifs_ns if self._use_eifs else self._difs_ns)

    def _interrupt_access(self) -> None:
        """Medium went busy during DIFS/backoff: freeze.

        The countdown runs as a single timer over the remaining slots
        (see :meth:`_on_ifs_expired`), so freezing converts time left
        back into whole slots.  The slot in progress has not completed,
        so it stays owed in full: ceiling division, which lands on the
        same counter value the slot-at-a-time countdown kept.
        """
        if self.phase in (DcfPhase.ACCESS_IFS, DcfPhase.ACCESS_BACKOFF):
            self._ifs_timer.cancel()
            expiry = self._slot_timer.expiry
            if expiry is not None:
                left = expiry - self.sim.now
                self._backoff_remaining = -(-left // self._slot_time_ns)
                self._slot_timer.cancel()
            self.phase = DcfPhase.ACCESS_WAIT

    def _on_ifs_expired(self) -> None:
        remaining = self._backoff_remaining
        if remaining > 0:
            self.phase = DcfPhase.ACCESS_BACKOFF
            # One event for the whole countdown instead of one per
            # slot.  Equivalent to the slot-at-a-time loop because the
            # intermediate slot boundaries had no observable effect —
            # an interruption recomputes the counter in
            # _interrupt_access, and a signal arriving in the final
            # slot was sent after this timer was armed (propagation
            # delay < slot time), so on an exact tie the ``(time,
            # seq)`` order fires this expiry first either way.
            self._slot_timer.start(remaining * self._slot_time_ns)
        else:
            self._transmit_rts()

    def _on_backoff_expired(self) -> None:
        self._backoff_remaining = 0
        self._transmit_rts()

    def _on_nav_expired(self) -> None:
        self._maybe_begin_ifs()

    # ------------------------------------------------------------------

    def _handshake_tail_ns(self, after: FrameType, data_bytes: int) -> int:
        """Duration-field value: medium time left after ``after`` ends."""
        phy = self._phy
        sifs = self.params.sifs_ns
        prop = phy.propagation_delay_ns
        cts = self._cts_airtime_ns
        ack = self._ack_airtime_ns
        data = phy.airtime_ns(data_bytes)
        if after is FrameType.RTS:
            return 3 * sifs + cts + data + ack + 3 * prop
        if after is FrameType.CTS:
            return 2 * sifs + data + ack + 2 * prop
        if after is FrameType.DATA:
            return sifs + ack + prop
        return 0

    def _pattern(self, ftype: FrameType, peer: int):
        bearing = self.neighbors.bearing_to(peer)
        return self.policy.pattern_for(
            ftype, bearing, self.beamwidth, retries=self._retries
        )

    def _transmit_rts(self) -> None:
        packet = self.queue[0]
        self._current_handshake = (self.node_id << 24) | self._next_handshake
        self._next_handshake += 1
        frame = Frame(
            FrameType.RTS,
            src=self.node_id,
            dst=packet.dst,
            size_bytes=FRAME_SIZES[FrameType.RTS],
            duration_ns=self._handshake_tail_ns(FrameType.RTS, packet.size_bytes),
            handshake_id=self._current_handshake,
        )
        self.phase = DcfPhase.AWAIT_CTS
        self.stats.rts_sent += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.record(
                self.sim.now, "mac", self.node_id, "rts-sent",
                dst=packet.dst, retries=self._retries,
            )
        self.radio.transmit(frame, self._pattern(FrameType.RTS, packet.dst))

    def _fire_send_data(self) -> None:
        if self.phase is not DcfPhase.SEND_DATA:  # pragma: no cover
            return
        if self.radio.transmitting:
            # Physically possible only under capture physics (a stale
            # responder ACK still on the air): treat as a failed
            # attempt rather than violating half-duplex.
            self._handshake_failed()
            return
        self._send_data()

    def _send_data(self) -> None:
        packet = self.queue[0]
        frame = Frame(
            FrameType.DATA,
            src=self.node_id,
            dst=packet.dst,
            size_bytes=packet.size_bytes,
            duration_ns=self._handshake_tail_ns(FrameType.DATA, packet.size_bytes),
            handshake_id=self._current_handshake,
            created_ns=packet.created_ns,
            payload=packet.payload,
        )
        self.phase = DcfPhase.AWAIT_ACK
        self.stats.data_sent += 1
        self.radio.transmit(frame, self._pattern(FrameType.DATA, packet.dst))

    # ------------------------------------------------------------------
    # Handshake outcomes.
    # ------------------------------------------------------------------

    def _on_cts_timeout(self) -> None:
        self.stats.cts_timeouts += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", self.node_id, "cts-timeout")
        self._handshake_failed()

    def _on_ack_timeout(self) -> None:
        self.stats.ack_timeouts += 1
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", self.node_id, "ack-timeout")
        self._handshake_failed()

    def _handshake_failed(self) -> None:
        self._initiator_timer.cancel()
        self._retries += 1
        if self._retries >= self.params.retry_limit:
            packet = self.queue.popleft()
            self.stats.packets_dropped += 1
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "mac", self.node_id, "packet-dropped",
                    dst=packet.dst,
                )
            self._notify_serviced(packet, delivered=False)
            self.backoff.reset()
            self._retries = 0
        else:
            self.backoff.double()
        self._backoff_remaining = self.backoff.draw()
        self.phase = DcfPhase.ACCESS_WAIT if self.queue else DcfPhase.NO_PACKET
        self._maybe_begin_ifs()

    def _handshake_succeeded(self) -> None:
        packet = self.queue.popleft()
        delay = self.sim.now - packet.created_ns
        self.stats.record_delivery(packet.size_bytes * 8, delay)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "mac", self.node_id, "delivered",
                dst=packet.dst, delay_ns=delay,
            )
        self._notify_serviced(packet, delivered=True)
        self.backoff.reset()
        self._retries = 0
        self._backoff_remaining = self.backoff.draw()  # post-TX backoff
        self.phase = DcfPhase.ACCESS_WAIT if self.queue else DcfPhase.NO_PACKET
        self._maybe_begin_ifs()

    def _notify_serviced(self, packet: Packet, delivered: bool) -> None:
        for listener in self.service_listeners:
            listener(packet, delivered)

    # ==================================================================
    # Responder side.
    # ==================================================================

    def _handle_rts(self, frame: Frame) -> None:
        if self._responding:
            return  # already committed to another handshake
        if self.phase not in _INITIATION_PHASES:
            return  # mid own handshake
        if self.nav.busy(self.sim.now):
            return  # 802.11: no CTS while NAV is set
        self._responding = True
        self._response_peer = frame.src
        incoming_handshake = frame.handshake_id
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "mac", self.node_id, "rts-accepted", src=frame.src
            )

        def respond() -> None:
            self._send_cts(frame.src, frame.duration_ns, incoming_handshake)

        self._schedule_response(respond)

    def _send_cts(self, peer: int, rts_duration_ns: int, handshake_id: int) -> None:
        if self.radio.transmitting:  # pragma: no cover - defensive
            self._end_response()
            return
        # Whatever the RTS reserved, minus SIFS and our own CTS air time.
        duration = max(
            0, rts_duration_ns - self.params.sifs_ns - self._cts_airtime_ns
        )
        frame = Frame(
            FrameType.CTS,
            src=self.node_id,
            dst=peer,
            size_bytes=FRAME_SIZES[FrameType.CTS],
            duration_ns=duration,
            handshake_id=handshake_id,
        )
        self.stats.cts_sent += 1
        self.radio.transmit(frame, self._pattern(FrameType.CTS, peer))

    def _handle_data(self, frame: Frame) -> None:
        self._data_timer.cancel()
        self._data_start_probe.cancel()
        self.stats.data_received += 1
        self.stats.bits_received += frame.size_bytes * 8
        for listener in self.delivery_listeners:
            listener(frame)

        def respond() -> None:
            self._send_ack(frame.src, frame.handshake_id)

        self._responding = True
        self._response_peer = frame.src
        self._schedule_response(respond)

    def _send_ack(self, peer: int, handshake_id: int) -> None:
        if self.radio.transmitting:  # pragma: no cover - defensive
            self._end_response()
            return
        frame = Frame(
            FrameType.ACK,
            src=self.node_id,
            dst=peer,
            size_bytes=FRAME_SIZES[FrameType.ACK],
            duration_ns=0,
            handshake_id=handshake_id,
        )
        self.stats.ack_sent += 1
        self.radio.transmit(frame, self._pattern(FrameType.ACK, peer))

    def _schedule_response(self, action: Callable[[], None]) -> None:
        """Queue a SIFS-spaced response (no carrier sensing, per spec)."""
        self._pending_response = action
        self._response_timer.start(self.params.sifs_ns)

    def _fire_response(self) -> None:
        action = self._pending_response
        self._pending_response = None
        if action is not None:
            action()

    def _on_data_start_timeout(self) -> None:
        """Short probe after our CTS: is a DATA frame arriving at all?

        If the medium is busy something is inbound — allow the full
        data window.  If it is silent the initiator missed our CTS;
        release the responder immediately (the 802.11 behaviour —
        a CTS sender does not idle through a whole data airtime).
        """
        if self.radio.carrier_busy:
            self._data_timer.start(self._data_timeout_ns)
        else:
            self._on_data_timeout()

    def _on_data_timeout(self) -> None:
        """CTS sent but the DATA never came: release the responder."""
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, "mac", self.node_id, "data-timeout")
        self._end_response()

    def _end_response(self) -> None:
        self._responding = False
        self._response_peer = -1
        self._pending_response = None
        self._response_timer.cancel()
        self._data_timer.cancel()
        self._data_start_probe.cancel()
        self._maybe_begin_ifs()

    # ==================================================================
    # Radio events (MacListener).
    # ==================================================================

    def on_frame_received(self, frame: Frame) -> None:
        self._use_eifs = False  # any clean frame ends the EIFS condition
        if frame.dst == self.node_id:
            if frame.ftype is FrameType.RTS:
                self._handle_rts(frame)
            elif frame.ftype is FrameType.CTS:
                self._handle_cts(frame)
            elif frame.ftype is FrameType.DATA:
                self._handle_data(frame)
            elif frame.ftype is FrameType.ACK:
                self._handle_ack(frame)
        else:
            # Overheard: virtual carrier sense.
            if frame.duration_ns > 0:
                self.nav.update(self.sim.now + frame.duration_ns)
                self._interrupt_access()

    def _handle_cts(self, frame: Frame) -> None:
        if self.phase is not DcfPhase.AWAIT_CTS:
            return
        if frame.src != self.queue[0].dst:
            return
        self._cts_timer.cancel()
        self.phase = DcfPhase.SEND_DATA
        self._initiator_timer.start(self.params.sifs_ns)

    def _handle_ack(self, frame: Frame) -> None:
        if self.phase is not DcfPhase.AWAIT_ACK:
            return
        if frame.src != self.queue[0].dst:
            return
        self._ack_timer.cancel()
        self._handshake_succeeded()

    def on_reception_failed(self) -> None:
        self._use_eifs = True

    def on_medium_busy(self) -> None:
        self._interrupt_access()

    def on_medium_idle(self) -> None:
        if self.phase in (DcfPhase.ACCESS_WAIT, DcfPhase.NO_PACKET):
            self._maybe_begin_ifs()

    def on_transmit_complete(self, frame: Frame) -> None:
        if frame.ftype is FrameType.RTS:
            self._cts_timer.start(self._cts_timeout_ns)
        elif frame.ftype is FrameType.CTS:
            self._data_start_probe.start(self._data_start_timeout_ns)
        elif frame.ftype is FrameType.DATA:
            self._ack_timer.start(self._ack_timeout_ns)
        elif frame.ftype is FrameType.ACK:
            self._end_response()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DcfMac(node={self.node_id}, phase={self.phase.value}, "
            f"queue={len(self.queue)}, policy={self.policy.name})"
        )
