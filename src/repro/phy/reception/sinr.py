"""SINR/capture reception: path loss, shadowing, sensitivity, capture.

The interference-limited physics the paper deliberately abstracts
away (and arXiv:1509.02325 analyses for directional antennas):

* **Log-distance path loss** — received power in dBm is
  ``tx_power_dbm - (reference_loss_db
  + 10 * pathloss_exponent * log10(d / reference_distance_m))``.
* **Lognormal shadowing** — a zero-mean gaussian in the dB domain,
  scaled by ``shadowing_sigma_db``, drawn once per *ordered* node pair
  as the first gaussian of a registry-named RNG stream
  (``shadow-{src}-{dst}``, via ``RngRegistry.gauss_many``, which keeps
  no stream object).  Link budgets are a pure function of
  ``(registry seed, src, dst)`` regardless of query order, and the two
  directions of a pair shadow independently — the model can express a
  node that hears a neighbor it cannot reach back (the classic
  asymmetric link).  The *unit* draws are memoized once per process
  per registry master seed, in a bounded map shared by every model
  built on that seed (the (scheme, theta) cells of one campaign
  replicate, and sigmas that differ), so only the first build on a
  seed pays for them.  A map always holds whole squares: the first
  query that names a node id past it draws every ordered pair of ids
  up to that one in a single bulk pass (for a network with ids
  ``0..n-1``, the first row fill draws the whole network).  The memo
  holds about 4M pairs (~32 MB) across seeds, evicting the least
  recently used seed; what it holds never changes a result, only how
  fast it is computed.
* **Row fills** — :meth:`SinrCaptureReception.link_budgets` answers a
  sender's whole row in one flat loop, with the arithmetic of
  :meth:`~SinrCaptureReception.rx_power_dbm` and :func:`dbm_to_mw` in
  the same order, so it equals the per-pair ``link_budget`` bit for
  bit.
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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice, repeat
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


def _shell_names(start: int, stop: int) -> Iterator[str]:
    """Pair-stream names of the shells ``start..stop-1``, in slot order."""
    for top in range(start, stop):
        for src in range(top):
            yield f"shadow-{src}-{top}"
        for dst in range(top + 1):
            yield f"shadow-{top}-{dst}"


class _ShadowingMemo:
    """Unit shadowing draws per registry master seed, LRU-bounded.

    One ``array('d')`` per seed, indexed by :func:`_pair_slot` and
    always whole shells: a map of ``m*m`` slots holds the draw of every
    ordered pair of ids below ``m``, the diagonal included.  Growing a
    map evicts the least recently used other seeds until the maps hold
    at most ``max_pairs`` slots; a map that alone would pass the bound
    stops growing, and pairs beyond it are drawn on every query instead.
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

    def cover(self, draws: array, registry: RngRegistry, ids: int) -> bool:
        """Whether ``draws`` holds every pair of ids below ``ids``.

        A map short of them grows by whole shells, all their pairs drawn
        in one :meth:`~repro.dessim.rng.RngRegistry.gauss_many` call,
        unless that would pass the bound.
        """
        size = ids * ids
        if size <= len(draws):
            return True
        if size > self.max_pairs:
            return False
        names = _shell_names(math.isqrt(len(draws)), ids)
        draws.extend(registry.gauss_many(names))
        maps = self._maps
        total = self.pairs()
        for seed in list(maps):
            if total <= self.max_pairs:
                break
            if maps[seed] is not draws:
                total -= len(maps.pop(seed))
        return True

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
        # The memo-hit guard's progress through the registry's stream
        # names (see _require_unstreamed_row).
        self._streams_seen = 0
        self._shadow_streamed = False

    # ------------------------------------------------------------------

    def shadowing_db(self, src_id: int, dst_id: int) -> float:
        """The pair's shadowing term (dB), drawn once per seed and memoized.

        The first unit gaussian of the ``shadow-{src}-{dst}`` stream,
        scaled by ``shadowing_sigma_db``, so the value is a pure
        function of the registry seed and the ordered pair —
        independent of when (or how often) the link is queried, and
        stable across mobility (per-pair, not per-position, the
        standard simplification).  The unit draw comes from the
        process-wide per-seed memo, grown to the pair's square on a
        miss (see :class:`_ShadowingMemo`), so no stream is kept per
        pair and later models on the same seed reuse it.  Zero sigma
        draws nothing and returns 0.0.

        Raises:
            ValueError: the registry already handed the pair's stream
                out through ``stream()``, memoized draw or not (or,
                on a miss, the stream of another pair of the square).
        """
        sigma = self.shadowing_sigma_db
        if not sigma:
            return 0.0
        name = f"shadow-{src_id}-{dst_id}"
        slot = _pair_slot(src_id, dst_id)
        draws = self._unit_draws
        if slot >= 0 and _MEMO.cover(draws, self.registry, max(src_id, dst_id) + 1):
            self.registry.require_unstreamed(name)
            return draws[slot] * sigma
        return self.registry.gauss_once(name) * sigma

    def _unit_row(self, src_id: int, dst_ids: Sequence[int]) -> Sequence[float]:
        """Unit draws of ``src_id -> d`` for each ``d`` of ``dst_ids``.

        From the seed's memo map, grown to cover the ids; past the memo
        bound (or for a negative id), drawn in one bulk call.
        """
        registry = self.registry
        ids = [src_id, *dst_ids]
        draws = self._unit_draws
        if min(ids) >= 0 and _MEMO.cover(draws, registry, max(ids) + 1):
            self._require_unstreamed_row(src_id, dst_ids)
            own = src_id * (src_id + 1)  # slot of (src_id, 0)
            return [
                draws[own + dst] if dst <= src_id else draws[dst * dst + src_id]
                for dst in dst_ids
            ]
        return registry.gauss_many(f"shadow-{src_id}-{dst}" for dst in dst_ids)

    def _require_unstreamed_row(self, src_id: int, dst_ids: Iterable[int]) -> None:
        """The memo-hit guard of :meth:`shadowing_db`, for a whole row.

        Stream names only accumulate, so each call scans just the names
        created since the previous one; the per-pair check runs only
        once some ``shadow-`` stream exists, which no simulation makes.
        """
        registry = self.registry
        names = registry.stream_names()
        if not self._shadow_streamed and len(names) != self._streams_seen:
            fresh = islice(names, self._streams_seen, None)
            self._shadow_streamed = any(n.startswith("shadow-") for n in fresh)
            self._streams_seen = len(names)
        if self._shadow_streamed:
            for dst_id in dst_ids:
                registry.require_unstreamed(f"shadow-{src_id}-{dst_id}")

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

    def link_budgets(
        self,
        src_id: int,
        src: Position,
        dst_ids: Sequence[int],
        dsts: Sequence[Position],
    ) -> list[tuple[bool, float]]:
        """:meth:`link_budget` of each pair, the row's draws fetched at once.

        One flat loop with :meth:`rx_power_dbm`'s and
        :func:`dbm_to_mw`'s operations in the same order, so every
        budget is bit-identical to the per-pair call.
        """
        sigma = self.shadowing_sigma_db
        units = self._unit_row(src_id, dst_ids) if sigma else repeat(0.0)
        tx_power = self.tx_power_dbm
        reference_loss = self.reference_loss_db
        slope = 10.0 * self.pathloss_exponent
        reference = self.reference_distance_m
        sensitivity = self._sensitivity_mw
        hypot, log10 = math.hypot, math.log10
        src_x, src_y = src.x, src.y
        budgets = []
        for dst, unit in zip(dsts, units):
            distance = hypot(dst.x - src_x, dst.y - src_y)
            if distance < reference:
                distance = reference
            path_loss_db = reference_loss + slope * log10(distance / reference)
            power_mw = 10.0 ** ((tx_power - path_loss_db + unit * sigma) / 10.0)
            budgets.append((power_mw >= sensitivity, power_mw))
        return budgets

    def make_receiver(self) -> SinrReceiver:
        return SinrReceiver(self._noise_mw, self._capture_ratio)
