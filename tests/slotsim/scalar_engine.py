"""The scalar slot-model engine: the batch engine's test oracle.

:class:`repro.slotsim.BatchSlotModelEngine` replaced this engine.
``tests/slotsim/replay_engine.py`` runs the batch engine on one
:class:`random.Random` consumed in this engine's draw order, and
``tests/slotsim/test_batch.py`` holds the two to bit-identical results.

Scripted four-way handshakes in slot time.

Each handshake follows the analytical model's timeline exactly::

    RTS (l_rts) | 1 | CTS (l_cts) | 1 | DATA (l_data) | 1 | ACK (l_ack) | 1
    => T_succeed = l_rts + l_cts + l_data + l_ack + 4 slots

with protocol checkpoints: if the RTS or CTS leg fails, the initiator
gives up after ``l_rts + l_cts + 2`` slots (the paper's omni ``T_fail``);
if the DATA or ACK leg fails, the full ``T_succeed`` is spent.  A
reception slot is corrupted when the listener itself transmits or any
third transmission is audible at it (omni reception, no capture —
Section 2's assumptions).
"""

import math
import random
from dataclasses import dataclass

from repro.phy.frames import FrameType
from repro.slotsim import SlotModelConfig, SlotModelResults

from .torus import TorusGeometry


@dataclass
class _Handshake:
    sender: int
    receiver: int
    start: int
    # Leg integrity, falsified by per-slot interference checks.
    rts_ok: bool = True
    cts_ok: bool = True
    data_ok: bool = True
    ack_ok: bool = True
    responded: bool = False  # receiver decided to send the CTS
    proceeded: bool = False  # sender decided to send the DATA
    end: int = -1  # filled when the outcome is known


class SlotModelEngine:
    """Runs the abstract slotted protocol on a torus."""

    def __init__(
        self,
        config: SlotModelConfig,
        geometry: TorusGeometry | None = None,
        metrics=None,
    ) -> None:
        self.config = config
        # Harvested into the registry when run() returns (never per
        # slot), so the slot loop costs the same with telemetry off.
        self._metrics = metrics
        # One seed drives placement and all per-slot draws; the slot
        # model is a single-stream Monte-Carlo kernel, not a network of
        # components, so a registry of named streams buys nothing here.
        self.rng = random.Random(config.seed)
        self.geometry = (
            geometry if geometry is not None else TorusGeometry(config, self.rng)
        )
        prm = config.params
        self._l = {
            FrameType.RTS: int(prm.l_rts),
            FrameType.CTS: int(prm.l_cts),
            FrameType.DATA: int(prm.l_data),
            FrameType.ACK: int(prm.l_ack),
        }
        # Phase boundaries relative to the start slot.
        self.rts_end = self._l[FrameType.RTS]
        self.cts_start = self.rts_end + 1
        self.cts_end = self.cts_start + self._l[FrameType.CTS]
        self.data_start = self.cts_end + 1
        self.data_end = self.data_start + self._l[FrameType.DATA]
        self.ack_start = self.data_end + 1
        self.ack_end = self.ack_start + self._l[FrameType.ACK]
        self.t_succeed = self.ack_end + 1
        self.t_fail_early = self.cts_end + 1  # l_rts + l_cts + 2

        # Effective beamwidth per frame type, resolved once: the policy
        # dispatch ran per interfering frame per listener per slot, on
        # the hottest line of the kernel.  The slot model never retries
        # a handshake, so the retries=0 resolution is total.
        policy = config.policy
        self._beamwidths: dict[FrameType, float] = {
            ftype: (
                config.params.beamwidth
                if policy.is_directional(ftype)
                else 2 * math.pi
            )
            for ftype in self._l
        }

        self._engaged: dict[int, _Handshake] = {}
        self._active: list[_Handshake] = []
        # Post-construction RNG state: run() rewinds to here so every
        # run is a pure function of the configuration (see run()).
        self._rng_run_state = self.rng.getstate()

    # ------------------------------------------------------------------

    def _beamwidth_for(self, ftype: FrameType, retries: int = 0) -> float:
        """Effective beamwidth of one frame under the configured policy."""
        return self._beamwidths[ftype]

    def _frame_on_air(
        self, hs: _Handshake, offset: int
    ) -> tuple[int, int, FrameType] | None:
        """(transmitter, aimed_at, ftype) if this handshake radiates at
        the given slot offset, else None."""
        if offset < self.rts_end:
            return (hs.sender, hs.receiver, FrameType.RTS)
        if hs.responded and self.cts_start <= offset < self.cts_end:
            return (hs.receiver, hs.sender, FrameType.CTS)
        if hs.proceeded:
            if self.data_start <= offset < self.data_end:
                return (hs.sender, hs.receiver, FrameType.DATA)
            # The receiver only radiates an ACK for a DATA it decoded.
            if (
                hs.responded
                and hs.data_ok
                and self.ack_start <= offset < self.ack_end
            ):
                return (hs.receiver, hs.sender, FrameType.ACK)
        return None

    # ------------------------------------------------------------------

    def run(self, slots: int) -> SlotModelResults:
        """Advance the world ``slots`` slots and return the measurements.

        Every call is a pure function of the configuration: per-run
        state (engaged nodes, in-flight handshakes) is cleared and the
        RNG rewound to its post-construction state, so ``run()`` called
        twice returns identical results, equal to a fresh engine's.
        Without the reset, handshakes surviving a previous run kept
        their old ``start`` slots while ``now`` restarted at 0 — stale
        negative offsets that radiated RTS forever and corrupted every
        statistic of the second run.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._engaged = {}
        self._active = []
        self.rng.setstate(self._rng_run_state)
        geo = self.geometry
        cfg = self.config
        results = SlotModelResults(
            slots=slots,
            node_count=geo.count,
            mean_degree=geo.mean_degree(),
        )

        for now in range(slots):
            # 1. New initiations by free nodes.
            for node in range(geo.count):
                if node in self._engaged:
                    continue
                if not geo.neighbors[node]:
                    continue
                if self.rng.random() >= cfg.p:
                    continue
                receiver = self.rng.choice(geo.neighbors[node])
                hs = _Handshake(sender=node, receiver=receiver, start=now)
                self._engaged[node] = hs
                self._active.append(hs)
                results.initiations += 1

            # 2. Collect transmissions on the air this slot.
            on_air: list[tuple[int, int, FrameType]] = []
            transmitting: set[int] = set()
            for hs in self._active:
                frame = self._frame_on_air(hs, now - hs.start)
                if frame is not None:
                    on_air.append(frame)
                    transmitting.add(frame[0])

            # 3. Interference checks for every listening leg.
            for hs in self._active:
                offset = now - hs.start
                frame = self._frame_on_air(hs, offset)
                if frame is None:
                    continue
                transmitter, _aimed, ftype = frame
                listener = (
                    hs.receiver if transmitter == hs.sender else hs.sender
                )
                if not self._slot_clean(listener, transmitter, on_air, transmitting):
                    if ftype is FrameType.RTS:
                        hs.rts_ok = False
                    elif ftype is FrameType.CTS:
                        hs.cts_ok = False
                    elif ftype is FrameType.DATA:
                        hs.data_ok = False
                    else:
                        hs.ack_ok = False

            # 4. Checkpoint decisions and completions.
            self._advance(now, results)

        if self._metrics is not None:
            self._harvest(results)
        return results

    def _harvest(self, results: SlotModelResults) -> None:
        """Push one run's outcome counts into the attached registry."""
        metrics = self._metrics
        assert metrics is not None
        metrics.counter("slotsim.slots").inc(results.slots)
        metrics.counter("slotsim.initiations").inc(results.initiations)
        metrics.counter("slotsim.successes").inc(results.successes)
        metrics.counter("slotsim.failures").inc(results.failures)
        metrics.counter("slotsim.payload_slots").inc(results.payload_slots)
        # Handshake failure durations bucket naturally at the model's
        # two checkpoints: the early RTS/CTS give-up and the full
        # T_succeed spent on a DATA/ACK loss.
        histogram = metrics.histogram(
            "slotsim.fail_duration_slots", (self.t_fail_early, self.t_succeed)
        )
        for duration, count in sorted(results.fail_durations.items()):
            histogram.observe(duration, count)

    def _slot_clean(
        self,
        listener: int,
        peer: int,
        on_air: list[tuple[int, int, FrameType]],
        transmitting: set[int],
    ) -> bool:
        """No interference at ``listener`` for the frame from ``peer``."""
        if listener in transmitting:
            return False  # deaf while transmitting
        geo = self.geometry
        beamwidths = self._beamwidths
        for transmitter, aimed, ftype in on_air:
            if transmitter in (peer, listener):
                continue
            if geo.covers(transmitter, aimed, listener, beamwidths[ftype]):
                return False
        return True

    def _advance(self, now: int, results: SlotModelResults) -> None:
        finished: list[_Handshake] = []
        for hs in self._active:
            offset = now - hs.start

            if offset == self.rts_end - 1:
                # End of the RTS: the receiver replies iff it heard the
                # RTS cleanly and is not otherwise occupied.
                receiver_free = hs.receiver not in self._engaged
                hs.responded = hs.rts_ok and receiver_free
                if hs.responded:
                    self._engaged[hs.receiver] = hs

            elif offset == self.cts_end - 1:
                hs.proceeded = hs.responded and hs.cts_ok

            elif offset == self.t_fail_early - 1 and not hs.proceeded:
                # No (clean) CTS: the initiator gives up now.
                hs.end = now + 1
                finished.append(hs)

            elif offset == self.t_succeed - 1:
                hs.end = now + 1
                finished.append(hs)

        for hs in finished:
            duration = hs.end - hs.start
            success = (
                hs.proceeded and hs.data_ok and hs.ack_ok
            )
            if success:
                results.successes += 1
                results.payload_slots += self._l[FrameType.DATA]
            else:
                results.failures += 1
                results.fail_durations[duration] += 1
            del self._engaged[hs.sender]
            if hs.responded:
                del self._engaged[hs.receiver]
        if finished:
            # One filtered sweep instead of per-handshake list.remove():
            # remove() rescans the list, turning completion into
            # O(active^2) per slot at high p.  ``end`` is only ever set
            # on the handshakes collected into ``finished`` above.
            self._active = [hs for hs in self._active if hs.end < 0]
