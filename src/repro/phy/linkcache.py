"""Link/geometry cache: the channel's sector-indexed fast path.

The naive channel answers "who hears this transmission?" with an O(N)
trig scan — one ``hypot`` + ``atan2`` per attached radio per
transmission — and the oracle neighbor protocol re-derives its neighbor
set from ground truth on every query.  Both costs are pure geometry
that only changes when a node *moves*, which is never (the paper's
static topologies) or rarely (random-waypoint steps every ~100 ms of
simulated time, versus thousands of transmissions in between).

This module caches that geometry:

* a **point cache** of :class:`Link` records per ordered node pair —
  ``(in_range, distance_m, bearing, delay_ns, rx_power)`` — so
  :meth:`~repro.mac.neighbors.NeighborTable.bearing_to` and
  ``distance_to`` become one dict lookup.  A row fill stores only its
  audible pairs' records (an inaudible pair costs no ``Link`` and no
  trig), and :meth:`LinkCache.link` builds an inaudible pair's full
  record on first demand;
* a **row cache** per sender: its in-range neighbors in attach order,
  binned into angular sectors, so ``audible_nodes`` only inspects the
  sectors overlapping the transmit beam plus one boundary check per
  candidate instead of scanning every radio on the medium.

Invalidation is epoch-based and lazy.  Every node carries an epoch that
:meth:`note_moved` bumps (``Radio.position``'s setter calls it); a
cached pair record is valid only while both endpoints' epochs match,
so a move invalidates exactly that node's pair rows and nothing is
recomputed until the next query that needs it.  Rows additionally
carry a global move stamp: any move marks all rows stale (a mover can
enter or leave *any* sender's range), but a stale row's rebuild reuses
every pair verdict whose endpoints did not move — an audible pair's
record from the point cache, an inaudible pair's verdict from the
epoch snapshot the old row was filled at (one snapshot shared by every
row filled at the same move stamp) — so the budget cost of a rebuild
is proportional to how many nodes actually moved.  A row's missing
pairs are budgeted in one
:meth:`~repro.phy.reception.base.ReceptionModel.link_budgets` call.

Determinism: the cache is bit-identical to the naive scan by
construction — audibility and powers come from the same
:class:`~repro.phy.reception.base.ReceptionModel` link budgets on
the same :class:`~repro.phy.propagation.Position` values (shadowing
draws, where the model has them, are memoized per ordered pair, so
cache misses cannot re-roll them), and audible sets are emitted in the
same attach order the naive loop iterates in
(``tests/phy/test_linkcache.py`` pins the equivalence property).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .antenna import AntennaPattern, normalize_angle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .propagation import Position
    from .radio import Radio
    from .reception.base import ReceptionModel

__all__ = ["Link", "LinkCache", "DEFAULT_SECTORS"]

#: Default number of angular bins per sender row.  16 keeps a paper-
#: sized beam (30-150 degrees) overlapping 2-8 bins while the bin
#: arrays stay tiny; the per-candidate ``covers`` check makes the
#: result independent of this value.
DEFAULT_SECTORS = 16

_TWO_PI = 2 * math.pi


class Link(NamedTuple):
    """Cached geometry of one ordered node pair ``(src -> dst)``."""

    in_range: bool
    distance_m: float
    bearing: float
    delay_ns: int
    rx_power: float


class _Row:
    """One sender's in-range neighbors, sector-indexed, at a move stamp.

    ``epochs`` is every node's epoch when the row was filled: its
    verdicts hold for each pair whose endpoints still have them.
    """

    __slots__ = ("stamp", "epochs", "ids", "entries", "bins")

    def __init__(
        self,
        stamp: int,
        epochs: dict[int, int],
        ids: list[int],
        entries: list[tuple[int, float, int, float]],
        bins: list[list[int]],
    ) -> None:
        self.stamp = stamp
        self.epochs = epochs
        self.ids = ids
        self.entries = entries
        self.bins = bins


class LinkCache:
    """Per-pair geometry cache with sector-indexed audibility rows.

    The cache shares the channel's radio dict (so attach order — the
    naive scan's iteration order — is preserved) and observes position
    changes through :meth:`note_moved`.  All public query methods are
    bit-identical to the naive channel scan they replace.
    """

    def __init__(
        self,
        reception: "ReceptionModel",
        radios: dict[int, "Radio"],
        sectors: int = DEFAULT_SECTORS,
    ) -> None:
        if sectors < 1:
            raise ValueError(f"sectors must be >= 1, got {sectors}")
        self.reception = reception
        self.propagation = reception.propagation
        self.sectors = sectors
        self._width = _TWO_PI / sectors
        self._radios = radios
        self._epochs: dict[int, int] = {}
        self._move_seq = 0
        # src -> dst -> (epoch_src, epoch_dst, record).
        self._links: dict[int, dict[int, tuple[int, int, Link]]] = {}
        self._rows: dict[int, _Row] = {}
        # (move stamp, copy of _epochs) of the latest row fill.
        self._snapshot: tuple[int, dict[int, int]] = (-1, {})

    # ------------------------------------------------------------------
    # Invalidation hooks (the channel and radios call these).
    # ------------------------------------------------------------------

    def note_attached(self, node_id: int) -> None:
        """A new radio joined the medium: all rows must see it."""
        self._epochs[node_id] = 0
        self._move_seq += 1

    def note_moved(self, node_id: int) -> None:
        """``node_id`` changed position: its pair records are stale."""
        self._epochs[node_id] = self._epochs.get(node_id, 0) + 1
        self._move_seq += 1

    # ------------------------------------------------------------------
    # Point queries.
    # ------------------------------------------------------------------

    def link(self, src_id: int, dst_id: int) -> Link:
        """The cached :class:`Link` from ``src_id`` to ``dst_id``.

        An inaudible pair, which a row fill does not record, gets its
        full record built here, on first demand.
        """
        epoch_src = self._epochs[src_id]
        epoch_dst = self._epochs[dst_id]
        src_links = self._links.setdefault(src_id, {})
        cached = src_links.get(dst_id)
        if cached is not None and cached[0] == epoch_src and cached[1] == epoch_dst:
            return cached[2]
        src = self._radios[src_id].position
        dst = self._radios[dst_id].position
        audible, rx_power = self.reception.link_budget(src_id, dst_id, src, dst)
        link = Link(
            in_range=audible,
            distance_m=src.distance_to(dst),
            bearing=src.bearing_to(dst),
            delay_ns=self.propagation.delay(src, dst),
            rx_power=rx_power,
        )
        src_links[dst_id] = (epoch_src, epoch_dst, link)
        return link

    # ------------------------------------------------------------------
    # Row queries (the transmit fast path).
    # ------------------------------------------------------------------

    def _row(self, sender_id: int) -> _Row:
        row = self._rows.get(sender_id)
        move_seq = self._move_seq
        if row is not None and row.stamp == move_seq:
            return row
        # Rebuild in attach order.  A pair whose endpoints have not
        # moved keeps its verdict: an audible one comes straight from
        # the point cache, and one the old row's snapshot still covers
        # without a record is inaudible.  The missing pairs cost one
        # link_budgets call for the whole row; the trig and the Link
        # record are only paid for audible pairs.
        epochs = self._epochs
        radios = self._radios
        epoch_src = epochs[sender_id]
        links = self._links.setdefault(sender_id, {})
        known = (
            row.epochs
            if row is not None and row.epochs.get(sender_id) == epoch_src
            else {}
        )
        # (node_id, record); record None marks a missing pair.
        candidates: list[tuple[int, Link | None]] = []
        missing_ids: list[int] = []
        missing: list[Position] = []
        for node_id, radio in radios.items():
            if node_id == sender_id:
                continue
            epoch_dst = epochs[node_id]
            cached = links.get(node_id)
            if cached is not None and cached[0] == epoch_src and cached[1] == epoch_dst:
                record = cached[2]
                if record.in_range:
                    candidates.append((node_id, record))
            elif known.get(node_id) != epoch_dst:
                candidates.append((node_id, None))
                missing_ids.append(node_id)
                missing.append(radio.position)
        src = radios[sender_id].position
        budgets = iter(
            self.reception.link_budgets(sender_id, src, missing_ids, missing)
            if missing_ids
            else ()
        )
        fresh = iter(missing)
        delay = self.propagation.delay
        pi = math.pi
        sectors = self.sectors
        width = self._width
        ids: list[int] = []
        entries: list[tuple[int, float, int, float]] = []
        bins: list[list[int]] = [[] for _ in range(sectors)]
        for node_id, record in candidates:
            if record is None:
                dst = next(fresh)
                audible, rx_power = next(budgets)
                if not audible:
                    continue
                record = Link(
                    in_range=audible,
                    distance_m=src.distance_to(dst),
                    bearing=src.bearing_to(dst),
                    delay_ns=delay(src, dst),
                    rx_power=rx_power,
                )
                links[node_id] = (epoch_src, epochs[node_id], record)
            bearing = record.bearing
            # Bearings live in (-pi, pi]; +pi lands on the last bin's
            # inclusive edge (the beam query scans a one-bin margin, so
            # the wrap seam is covered either way).
            sector = int((bearing + pi) / width)
            if sector >= sectors:
                sector = sectors - 1
            bins[sector].append(len(entries))
            ids.append(node_id)
            entries.append((node_id, bearing, record.delay_ns, record.rx_power))
        if self._snapshot[0] != move_seq:
            self._snapshot = (move_seq, dict(epochs))
        row = _Row(move_seq, self._snapshot[1], ids, entries, bins)
        self._rows[sender_id] = row
        return row

    def neighbors_of(self, node_id: int) -> list[int]:
        """In-range node ids in attach order (the naive scan's order)."""
        return list(self._row(node_id).ids)

    def audible_entries(
        self, sender_id: int, pattern: AntennaPattern
    ) -> list[tuple[int, float, int, float]]:
        """``(node_id, bearing, delay_ns, rx_power)`` per audible radio.

        Attach order, exactly the naive scan's audible set.  The
        returned list is cache-owned for the omni case — treat it as
        read-only.
        """
        row = self._row(sender_id)
        entries = row.entries
        if pattern.is_omni:
            return entries
        covers = pattern.covers
        # Which sector bins can hold a covered bearing?  The beam arc
        # spans beamwidth radians; scan the bins it straddles plus a
        # one-bin float-safety margin on each side.  Candidates outside
        # the beam are rejected by the same `covers` check the naive
        # scan applies, so the margin costs a comparison, never
        # correctness.
        span = int(pattern.beamwidth / self._width) + 4
        if span >= self.sectors:
            return [entry for entry in entries if covers(entry[1])]
        low = normalize_angle(pattern.boresight - pattern.beamwidth / 2.0)
        start = int((low + math.pi) / self._width) - 1
        sectors = self.sectors
        bins = row.bins
        indices: list[int] = []
        for offset in range(span):
            indices.extend(bins[(start + offset) % sectors])
        indices.sort()  # bin contents are disjoint; sorting restores attach order
        return [entries[i] for i in indices if covers(entries[i][1])]

    # ------------------------------------------------------------------
    # Introspection (tests and sizing).
    # ------------------------------------------------------------------

    @property
    def move_seq(self) -> int:
        """Total attach/move bumps observed (row-staleness stamp)."""
        return self._move_seq

    def epoch_of(self, node_id: int) -> int:
        """Position epoch of one node (0 until its first move)."""
        return self._epochs[node_id]

    def cached_pairs(self) -> int:
        """Number of ordered pairs currently in the point cache."""
        return sum(map(len, self._links.values()))
