"""SINR/capture reception: path loss, shadowing, sensitivity, capture.

The interference-limited physics the paper deliberately abstracts
away (and arXiv:1509.02325 analyses for directional antennas):

* **Log-distance path loss** — received power in dBm is
  ``tx_power_dbm - (reference_loss_db
  + 10 * pathloss_exponent * log10(d / reference_distance_m))``.
* **Lognormal shadowing** — a zero-mean gaussian in the dB domain,
  scaled by ``shadowing_sigma_db``, drawn once per *ordered* node pair
  as the first gaussian of a registry-named RNG stream
  (``shadow-{src}-{dst}``, via ``RngRegistry.gauss_once``, which keeps
  no stream object).  Link budgets are a pure function of
  ``(registry seed, src, dst)`` regardless of query order, and the two
  directions of a pair shadow independently — the model can express a
  node that hears a neighbor it cannot reach back (the classic
  asymmetric link).  The *unit* draws are memoized once per process
  per registry master seed, in a bounded map shared by every model
  built on that seed (the (scheme, theta) cells of one campaign
  replicate, and sigmas that differ), so only the first build on a
  seed pays for them.  The memo holds about 4M pairs (~32 MB) across
  seeds, evicting the least recently used seed; what it holds never
  changes a result, only how fast it is computed.
* **Sensitivity** — a signal below ``sensitivity_dbm`` at the receiver
  is not audible at all: the channel never schedules its edges, so it
  neither decodes nor interferes.  (LoRa-style reception tables make
  the same cut before any collision reasoning.)
* **SINR capture** — the receiver locks onto a signal only while its
  power over ``noise + sum of all other impinging powers`` (linear
  domain) stays at or above the capture threshold.  Every later
  arrival re-checks the ongoing reception, so a frame can die mid-air;
  conversely a frame that overlaps weaker garbage end-to-end is
  *captured* and delivered where the unit-disk model corrupts both.
  A frame is delivered iff it was being decoded for its whole airtime.

Determinism contract: all randomness flows through the injected
:class:`~repro.dessim.rng.RngRegistry`; equal seeds give equal
shadowing maps, equal audibility, and equal outcomes, bit-for-bit,
on every platform the registry's SHA-256 derivation covers.
"""

from __future__ import annotations

import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...dessim.rng import RngRegistry
from ..propagation import Position, UnitDiskPropagation
from .base import Receiver, ReceptionModel, RxOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..channel import Transmission

__all__ = [
    "SinrCaptureReception",
    "SinrReceiver",
    "clear_shadowing_memo",
    "dbm_to_mw",
    "mw_to_dbm",
]

#: Ordered-pair slots the shadowing memo holds across all seeds: 4M
#: doubles, ~32 MB.  A paper-scale campaign (50 topologies of 200
#: nodes) needs ~2M.
_MEMO_PAIRS = 1 << 22

_NAN = array("d", [math.nan])


def dbm_to_mw(dbm: float) -> float:
    """Linear power (mW) of a dBm level."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """dBm level of a linear power (mW); requires ``mw > 0``."""
    if mw <= 0:
        raise ValueError(f"power must be positive, got {mw!r}")
    return 10.0 * math.log10(mw)


def _pair_slot(src_id: int, dst_id: int) -> int:
    """Memo slot of the ordered pair, or -1 for a negative node id.

    Pairs with ``max(src, dst) == m`` fill the square shell
    ``[m*m, (m+1)**2)``, so a map needs no node count and the first
    ``(m+1)**2`` slots cover every pair of ids up to ``m``.
    """
    if src_id < 0 or dst_id < 0:
        return -1
    if src_id >= dst_id:
        return src_id * (src_id + 1) + dst_id
    return dst_id * dst_id + src_id


class _ShadowingMemo:
    """Unit shadowing draws per registry master seed, LRU-bounded.

    One ``array('d')`` per seed, indexed by :func:`_pair_slot`, NaN
    for a pair not drawn yet.  Growing a map evicts the least recently
    used other seeds until the maps hold at most ``max_pairs`` slots;
    a map that alone would pass the bound stops growing, and pairs
    beyond it are drawn on every query instead.
    """

    def __init__(self, max_pairs: int) -> None:
        self.max_pairs = max_pairs
        self._maps: OrderedDict[int, array] = OrderedDict()

    def draws_for(self, seed: int) -> array:
        """The seed's map, created empty, marked most recently used."""
        maps = self._maps
        draws = maps.get(seed)
        if draws is None:
            draws = maps[seed] = array("d")
        else:
            maps.move_to_end(seed)
        return draws

    def store(self, draws: array, slot: int, draw: float) -> None:
        """Remember ``draw`` at ``slot`` of ``draws`` if the bound allows."""
        if slot >= len(draws):
            size = (math.isqrt(slot) + 1) ** 2  # whole shells
            if size > self.max_pairs:
                return
            draws.extend(_NAN * (size - len(draws)))
            maps = self._maps
            total = self.pairs()
            for seed in list(maps):
                if total <= self.max_pairs:
                    break
                if maps[seed] is not draws:
                    total -= len(maps.pop(seed))
        draws[slot] = draw

    def pairs(self) -> int:
        """Slots currently held across all seeds."""
        return sum(map(len, self._maps.values()))

    def clear(self) -> None:
        self._maps.clear()


_MEMO = _ShadowingMemo(_MEMO_PAIRS)


def clear_shadowing_memo() -> None:
    """Forget every memoized shadowing draw (results do not change).

    For timing a cold build: the next model on each seed draws its
    pairs afresh.  Models built earlier keep their own map.
    """
    _MEMO.clear()


@dataclass(slots=True)
class _SinrSignal:
    """Book-keeping for one signal impinging on a SINR receiver."""

    tx: "Transmission"
    power_mw: float
    corrupted: bool = False
    missed: bool = False
    #: Whether any other signal overlapped this one while decoding it.
    overlapped: bool = False


class SinrReceiver(Receiver):
    """Whole-airtime SINR tracking with capture and mid-air drops."""

    __slots__ = ("noise_mw", "capture_ratio", "_rx_current")

    def __init__(self, noise_mw: float, capture_ratio: float) -> None:
        super().__init__()
        self.noise_mw = noise_mw
        #: Linear SINR the decoded signal must keep for its whole airtime.
        self.capture_ratio = capture_ratio
        self._rx_current: int | None = None

    def signal_start(self, tx: "Transmission", power: float, deaf: bool) -> bool:
        record = _SinrSignal(tx, power)
        records = self.records
        if deaf:
            record.missed = True
        elif records:
            if self._rx_current is not None:
                # Re-check the ongoing reception against the grown
                # interference; the newcomer's preamble overlapped a
                # locked decode either way, so it can never be taken.
                current = records[self._rx_current]
                current.overlapped = True
                interference = (
                    self.noise_mw
                    + sum(s.power_mw for s in records.values())
                    - current.power_mw
                    + power
                )
                if current.power_mw < self.capture_ratio * interference:
                    current.corrupted = True
                    self._rx_current = None
                    self.sinr_drops += 1
                record.missed = True
            else:
                # Only garbage in the air: capture the newcomer if it
                # clears noise plus everything else by the threshold.
                interference = self.noise_mw + sum(
                    s.power_mw for s in records.values()
                )
                if power >= self.capture_ratio * interference:
                    self._rx_current = tx.tx_id
                    record.overlapped = True
                else:
                    record.missed = True
        else:
            # Idle medium: lock on iff the signal clears the noise floor.
            if power >= self.capture_ratio * self.noise_mw:
                self._rx_current = tx.tx_id
            else:
                record.missed = True
        records[tx.tx_id] = record
        return self._rx_current == tx.tx_id

    def signal_end(self, tx: "Transmission", transmitting: bool) -> RxOutcome | None:
        record = self.records.pop(tx.tx_id, None)
        if record is None:  # pragma: no cover - channel never double-ends
            return None
        decoded = self._rx_current == tx.tx_id
        if decoded:
            self._rx_current = None
        if decoded and not record.corrupted and not record.missed:
            if record.overlapped:
                self.captures += 1
            return RxOutcome.DELIVERED
        if record.corrupted and not record.missed and not transmitting:
            return RxOutcome.FAILED
        return RxOutcome.SILENT

    def abandon(self) -> None:
        for record in self.records.values():
            record.missed = True
        self._rx_current = None


class SinrCaptureReception(ReceptionModel):
    """Log-distance + shadowing link budgets with SINR capture receivers."""

    name = "sinr"

    def __init__(
        self,
        propagation: UnitDiskPropagation,
        registry: RngRegistry,
        *,
        tx_power_dbm: float = 20.0,
        pathloss_exponent: float = 3.0,
        reference_distance_m: float = 1.0,
        reference_loss_db: float = 40.0,
        shadowing_sigma_db: float = 6.0,
        sensitivity_dbm: float = -94.0,
        noise_dbm: float = -104.0,
        capture_threshold_db: float = 10.0,
    ) -> None:
        super().__init__(propagation)
        if not pathloss_exponent > 0:
            raise ValueError(
                f"pathloss exponent must be positive, got {pathloss_exponent!r}"
            )
        if not reference_distance_m > 0:
            raise ValueError(
                f"reference distance must be positive, got {reference_distance_m!r}"
            )
        if shadowing_sigma_db < 0:
            raise ValueError(
                f"shadowing sigma must be >= 0, got {shadowing_sigma_db!r}"
            )
        if sensitivity_dbm < noise_dbm:
            raise ValueError(
                f"sensitivity ({sensitivity_dbm} dBm) below the noise floor "
                f"({noise_dbm} dBm) would deliver pure-noise receptions"
            )
        self.registry = registry
        self.tx_power_dbm = tx_power_dbm
        self.pathloss_exponent = pathloss_exponent
        self.reference_distance_m = reference_distance_m
        self.reference_loss_db = reference_loss_db
        self.shadowing_sigma_db = shadowing_sigma_db
        self.sensitivity_dbm = sensitivity_dbm
        self.noise_dbm = noise_dbm
        self.capture_threshold_db = capture_threshold_db
        self._sensitivity_mw = dbm_to_mw(sensitivity_dbm)
        self._noise_mw = dbm_to_mw(noise_dbm)
        self._capture_ratio = dbm_to_mw(capture_threshold_db)  # dB -> ratio
        self._unit_draws = _MEMO.draws_for(registry.master_seed)

    # ------------------------------------------------------------------

    def shadowing_db(self, src_id: int, dst_id: int) -> float:
        """The pair's shadowing term (dB), drawn once per seed and memoized.

        The first unit gaussian of the ``shadow-{src}-{dst}`` stream,
        scaled by ``shadowing_sigma_db``, so the value is a pure
        function of the registry seed and the ordered pair —
        independent of when (or how often) the link is queried, and
        stable across mobility (per-pair, not per-position, the
        standard simplification).  The draw comes from
        :meth:`~repro.dessim.rng.RngRegistry.gauss_once`, so no stream
        is kept per pair, and the unit draw is remembered in the
        process-wide per-seed memo, so later models on the same seed
        reuse it.  Zero sigma draws nothing and returns 0.0.

        Raises:
            ValueError: the registry already handed the pair's stream
                out through ``stream()``, memoized draw or not.
        """
        sigma = self.shadowing_sigma_db
        if not sigma:
            return 0.0
        name = f"shadow-{src_id}-{dst_id}"
        draws = self._unit_draws
        slot = _pair_slot(src_id, dst_id)
        draw = draws[slot] if 0 <= slot < len(draws) else math.nan
        if draw == draw:
            self.registry.require_unstreamed(name)
        else:  # NaN: not drawn on this seed yet
            draw = self.registry.gauss_once(name)
            if slot >= 0:
                _MEMO.store(draws, slot, draw)
        return draw * sigma

    def rx_power_dbm(
        self, src_id: int, dst_id: int, src: Position, dst: Position
    ) -> float:
        """Received power (dBm) under log-distance loss + shadowing."""
        distance = max(src.distance_to(dst), self.reference_distance_m)
        path_loss_db = self.reference_loss_db + (
            10.0
            * self.pathloss_exponent
            * math.log10(distance / self.reference_distance_m)
        )
        return self.tx_power_dbm - path_loss_db + self.shadowing_db(src_id, dst_id)

    def link_budget(
        self, src_id: int, dst_id: int, src: Position, dst: Position
    ) -> tuple[bool, float]:
        """Audible iff the received power clears the sensitivity floor.

        Powers are linear (mW) so receivers can sum interference
        directly; sub-sensitivity signals are invisible — they neither
        decode nor interfere, which is what makes asymmetric links
        possible at the MAC layer.
        """
        power_mw = dbm_to_mw(self.rx_power_dbm(src_id, dst_id, src, dst))
        return (power_mw >= self._sensitivity_mw, power_mw)

    def make_receiver(self) -> SinrReceiver:
        return SinrReceiver(self._noise_mw, self._capture_ratio)
