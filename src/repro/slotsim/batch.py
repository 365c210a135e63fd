"""Vectorized batch slot-model engine: replicate batches in lockstep.

:class:`BatchSlotModelEngine` advances ``batch`` independent traffic
replicates of the slotted protocol world as one numpy array program.
Per-node state lives in ``[batch, nodes]`` vectors (engaged/active
flags, handshake start slot, receiver choice, leg-integrity bits),
initiation draws and receiver choices come from per-replicate
:class:`numpy.random.Generator` streams, and interference resolves
against a precomputed torus coverage tensor
(node x aim-sector x listener) held by :class:`BatchGeometry` — so one
slot of the whole batch costs a handful of array operations instead of
a Python loop over nodes and handshakes.

Each replicate owns a PCG64 stream at a fixed
:class:`~numpy.random.SeedSequence` spawn key, consuming exactly
``2 * nodes`` uniforms per slot regardless of state, so outcomes are
seed-stable and independent of how a sweep is split into batches.

The scalar engine it replaced, one Python loop over nodes and
handshakes, is kept as a test oracle (``tests/slotsim/scalar_engine.py``).
``tests/slotsim/test_batch.py`` holds the two to bit-identical results
through a test-side subclass that overrides only the per-run
initiation step (:meth:`BatchSlotModelEngine._initiator`) to replay
the scalar engine's :class:`random.Random` draws, and to
distributional agreement on the numpy streams.

A batch shares one topology: the engine models ``batch`` traffic
replicates on a single node placement (the coverage tensor is
precomputed once per geometry).  Topology replication is expressed as
multiple engines with different seeds, exactly as the campaign layer
does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..phy.frames import FrameType
from .model import SlotModelConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from ..obs.metrics import MetricsRegistry

__all__ = ["BatchGeometry", "BatchSlotModelEngine", "SlotModelResults"]

_TWO_PI = 2.0 * math.pi

#: Spawn-key prefixes under ``SeedSequence(config.seed)``: geometry
#: placement and replicate traffic never share a stream, so adding
#: replicates can never perturb the node layout.
_GEOMETRY_KEY = 0
_REPLICATE_KEY = 1


def _generator(entropy: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """One PCG64 stream at a fixed spawn key under the config seed.

    Deriving every stream from ``SeedSequence(entropy, spawn_key)``
    rather than spawning sequentially makes each replicate stream a
    pure function of its index: a batch of four equals two batches of
    two at offsets 0 and 2, draw for draw.
    """
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)  # simlint: disable=SL001 -- batch kernel: every stream is a fixed spawn of SlotModelConfig.seed
    return np.random.Generator(np.random.PCG64(seq))  # simlint: disable=SL001 -- constructs the derived stream seeded above


class BatchGeometry:
    """Array-form torus geometry: padded neighbor table + coverage tensor.

    Attributes:
        side: torus side length (``R = 1`` units).
        count: node count ``K``.
        beamwidth: the directional beamwidth the coverage tensor was
            baked for (``config.params.beamwidth``).
        nbr: ``int32 [K, D]`` neighbor ids, ascending per row, padded
            with ``-1`` to the maximum degree ``D``.
        deg: ``int64 [K]`` neighbor counts.
        valid: ``bool [K, D]`` — which slots of ``nbr`` are real.
        rev: ``int32 [K, D]`` — ``rev[k, d]`` is the slot of ``k`` in
            the row of its ``d``-th neighbor (neighborhood is
            symmetric, so the reverse entry always exists).
        cov: ``bool [K, D, D]`` — ``cov[k, a, l]`` is whether a beam
            from ``k`` toward its ``a``-th neighbor (full width
            ``beamwidth``) covers its ``l``-th neighbor.  Omni frames
            use ``valid`` instead (an omni transmission reaches every
            neighbor and nothing else — the unit-disk model).
    """

    def __init__(
        self,
        side: float,
        beamwidth: float,
        nbr: np.ndarray,
        deg: np.ndarray,
        cov: np.ndarray,
    ) -> None:
        self.side = float(side)
        self.beamwidth = float(beamwidth)
        self.nbr = nbr
        self.deg = deg
        self.cov = cov
        self.count = int(nbr.shape[0])
        self.valid = nbr >= 0
        # rev: rows are ascending, so k's slot in neighbor j's row is
        # the number of j's neighbors with id below k.
        safe = np.where(self.valid, nbr, 0)
        nbr_of_nbr = nbr[safe]  # [K, D, D]
        ids = np.arange(self.count, dtype=np.int32)[:, None, None]
        rev = ((nbr_of_nbr >= 0) & (nbr_of_nbr < ids)).sum(axis=2)
        self.rev = np.where(self.valid, rev, 0).astype(np.int32)

    # ------------------------------------------------------------------

    @classmethod
    def generate(
        cls, config: SlotModelConfig, rng: np.random.Generator
    ) -> "BatchGeometry":
        """Draw a fresh placement and build the tables in array form.

        Neighbor search is cell-binned: ``torus_factor >= 3``
        guarantees at least a 3x3 grid of cells with edge ``>= 1``, so
        every range-1 neighbor lives in the node's own or an adjacent
        cell and the nine gathered cells are all distinct (no
        duplicate pairs).  This keeps construction near-linear in the
        node count — the O(K^2) pairwise tables of the scalar test
        oracle's geometry are infeasible at the 10^4-node scale this
        engine exists for.
        """
        side = float(config.torus_factor)
        count = config.node_count
        xs = rng.random(count) * side
        ys = rng.random(count) * side
        ncell = int(side)
        edge = side / ncell
        cx = np.minimum((xs / edge).astype(np.int64), ncell - 1)
        cy = np.minimum((ys / edge).astype(np.int64), ncell - 1)
        cell = cx * ncell + cy
        order = np.argsort(cell, kind="stable")
        counts = np.bincount(cell, minlength=ncell * ncell)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        half = side / 2.0

        pair_i: list[np.ndarray] = []
        pair_j: list[np.ndarray] = []
        pair_dx: list[np.ndarray] = []
        pair_dy: list[np.ndarray] = []
        all_nodes = np.arange(count)
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                cid = ((cx + ox) % ncell) * ncell + (cy + oy) % ncell
                cnt = counts[cid]
                total = int(cnt.sum())
                if total == 0:
                    continue
                ii = np.repeat(all_nodes, cnt)
                run = np.concatenate(([0], np.cumsum(cnt)[:-1]))
                local = np.arange(total) - np.repeat(run, cnt)
                jj = order[np.repeat(starts[cid], cnt) + local]
                dx = np.mod(xs[jj] - xs[ii] + half, side) - half
                dy = np.mod(ys[jj] - ys[ii] + half, side) - half
                keep = (dx * dx + dy * dy <= 1.0) & (ii != jj)
                pair_i.append(ii[keep])
                pair_j.append(jj[keep])
                pair_dx.append(dx[keep])
                pair_dy.append(dy[keep])

        ii = np.concatenate(pair_i) if pair_i else np.zeros(0, dtype=np.int64)
        jj = np.concatenate(pair_j) if pair_j else np.zeros(0, dtype=np.int64)
        dx = np.concatenate(pair_dx) if pair_dx else np.zeros(0)
        dy = np.concatenate(pair_dy) if pair_dy else np.zeros(0)
        by_row = np.lexsort((jj, ii))
        ii, jj = ii[by_row], jj[by_row]
        bearing = np.arctan2(dy[by_row], dx[by_row])

        deg = np.bincount(ii, minlength=count).astype(np.int64)
        width = int(deg.max()) if count and deg.max() > 0 else 1
        row_start = np.concatenate(([0], np.cumsum(deg)[:-1]))
        slot = np.arange(ii.size) - np.repeat(row_start, deg)
        nbr = np.full((count, width), -1, dtype=np.int32)
        nbr[ii, slot] = jj
        bear = np.zeros((count, width))
        bear[ii, slot] = bearing

        valid = nbr >= 0
        # cov[k, a, l] = |wrap(bearing[k,l] - bearing[k,a])| <= theta/2.
        delta = bear[:, None, :] - bear[:, :, None]
        wrapped = np.mod(delta + math.pi, _TWO_PI) - math.pi
        beamwidth = float(config.params.beamwidth)
        cov = (
            (np.abs(wrapped) <= beamwidth / 2.0)
            & valid[:, None, :]
            & valid[:, :, None]
        )
        geometry = cls(side, beamwidth, nbr, deg, cov)
        geometry.xs = xs
        geometry.ys = ys
        return geometry

    # ------------------------------------------------------------------

    #: Node coordinates, populated by :meth:`generate` (a geometry
    #: built from its tables alone has none).
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    def mean_degree(self) -> float:
        """Average neighbor count (should approximate ``N``)."""
        if self.count == 0:
            return 0.0
        return float(self.deg.sum()) / self.count


@dataclass
class SlotModelResults:
    """Measured outcomes of one slot-model run."""

    slots: int
    node_count: int
    mean_degree: float
    initiations: int = 0
    successes: int = 0
    failures: int = 0
    #: Delivered payload, in whole slots.  Kept integer-exact (packet
    #: lengths are integral slot counts) so equivalence checks between
    #: engines can compare ledgers with ``==`` instead of a tolerance.
    payload_slots: int = 0
    fail_durations: Counter = field(default_factory=Counter)

    @property
    def throughput_per_node(self) -> float:
        """Delivered payload slots per node per slot — the empirical
        counterpart of the analytical ``Th``."""
        if self.slots == 0:
            return 0.0
        return self.payload_slots / (self.slots * self.node_count)

    @property
    def success_ratio(self) -> float:
        """Completed handshakes over initiated handshakes."""
        if self.initiations == 0:
            return 0.0
        return self.successes / self.initiations

    @property
    def mean_fail_duration(self) -> float:
        """Empirical ``T_fail`` (compare the truncated-geometric mean)."""
        total = sum(self.fail_durations.values())
        if total == 0:
            return 0.0
        return sum(d * c for d, c in self.fail_durations.items()) / total


class BatchSlotModelEngine:
    """Runs ``batch`` lockstep replicates of the slotted protocol.

    Args:
        config: the slot-model configuration; ``config.seed`` roots
            every stream.
        batch: number of independent traffic replicates advanced in
            lockstep on the shared geometry.
        replicate_offset: index of the first replicate's traffic
            stream.  Running ``batch=2, replicate_offset=2`` continues
            exactly where ``batch=2, replicate_offset=0`` left off, so
            a sweep can be split across engine instances (or campaign
            workers) without changing any outcome.
        geometry: a :class:`BatchGeometry`, or ``None`` to draw a
            placement from the geometry stream.
        metrics: optional registry; harvested once per :meth:`run`
            into the ``slotsim.*`` instruments, summed over the batch.
    """

    def __init__(
        self,
        config: SlotModelConfig,
        *,
        batch: int = 1,
        replicate_offset: int = 0,
        geometry: BatchGeometry | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if replicate_offset < 0:
            raise ValueError(
                f"replicate_offset must be >= 0, got {replicate_offset}"
            )
        self.config = config
        self.batch = batch
        self.replicate_offset = replicate_offset
        self._metrics = metrics

        prm = config.params
        self._l = {
            FrameType.RTS: int(prm.l_rts),
            FrameType.CTS: int(prm.l_cts),
            FrameType.DATA: int(prm.l_data),
            FrameType.ACK: int(prm.l_ack),
        }
        # Phase boundaries relative to the start slot — identical to
        # the scalar engine's.
        self.rts_end = self._l[FrameType.RTS]
        self.cts_start = self.rts_end + 1
        self.cts_end = self.cts_start + self._l[FrameType.CTS]
        self.data_start = self.cts_end + 1
        self.data_end = self.data_start + self._l[FrameType.DATA]
        self.ack_start = self.data_end + 1
        self.ack_end = self.ack_start + self._l[FrameType.ACK]
        self.t_succeed = self.ack_end + 1
        self.t_fail_early = self.cts_end + 1

        policy = config.policy
        # The slot model never retries, so retries=0 resolves the
        # policy completely (including the alternating-RTS variant).
        self._directional = {
            ftype: policy.is_directional(ftype) for ftype in self._l
        }

        if geometry is None:
            self.geometry = BatchGeometry.generate(
                config, _generator(config.seed, (_GEOMETRY_KEY,))
            )
        else:
            if any(self._directional.values()) and (
                geometry.beamwidth != prm.beamwidth
            ):
                raise ValueError(
                    "geometry coverage tensor was baked for beamwidth "
                    f"{geometry.beamwidth!r}, config wants {prm.beamwidth!r}"
                )
            self.geometry = geometry

    # ------------------------------------------------------------------

    def _initiator(
        self,
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The per-run initiation step, called once on entry to :meth:`run`.

        Returns ``initiate(engaged)``, which draws one slot's new
        handshakes from the ``[batch, nodes]`` engaged mask as
        ``(irep, inode, islot)``: replicate, initiator and the slot of
        its receiver in the initiator's neighbor row.  The per-replicate
        generators are recreated on every call, so ``run()`` stays a
        pure function of the configuration, and consume a fixed
        ``2 * nodes`` uniforms per replicate per slot regardless of
        state, which keeps the streams seed-stable and batch-split
        invariant.
        """
        gens = [
            _generator(
                self.config.seed,
                (_REPLICATE_KEY, self.replicate_offset + i),
            )
            for i in range(self.batch)
        ]
        count, deg = self.geometry.count, self.geometry.deg
        can_init = deg > 0
        p = self.config.p

        def initiate(
            engaged: np.ndarray,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            draws = np.stack([g.random((2, count)) for g in gens])
            init = ~engaged & can_init[None, :] & (draws[:, 0, :] < p)
            irep, inode = np.nonzero(init)
            d = deg[inode]
            islot = np.minimum(
                (draws[irep, 1, inode] * d).astype(np.int64), d - 1
            ).astype(np.int32)
            return irep, inode, islot

        return initiate

    def run(self, slots: int) -> list[SlotModelResults]:
        """Advance every replicate ``slots`` slots; one result each.

        Every call is a pure function of the configuration: all per-run
        state is local and :meth:`_initiator` re-derives the streams on
        entry.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        geo = self.geometry
        nreps, count = self.batch, geo.count
        nbr, valid = geo.nbr, geo.valid
        cov, rev = geo.cov, geo.rev
        dirs = self._directional
        initiate = self._initiator()

        engaged = np.zeros((nreps, count), dtype=bool)
        active = np.zeros((nreps, count), dtype=bool)
        start = np.zeros((nreps, count), dtype=np.int64)
        recv = np.zeros((nreps, count), dtype=np.int32)
        recv_slot = np.zeros((nreps, count), dtype=np.int32)
        rts_ok = np.zeros((nreps, count), dtype=bool)
        cts_ok = np.zeros((nreps, count), dtype=bool)
        data_ok = np.zeros((nreps, count), dtype=bool)
        ack_ok = np.zeros((nreps, count), dtype=bool)
        responded = np.zeros((nreps, count), dtype=bool)
        proceeded = np.zeros((nreps, count), dtype=bool)

        initiations = np.zeros(nreps, dtype=np.int64)
        successes = np.zeros(nreps, dtype=np.int64)
        early_fails = np.zeros(nreps, dtype=np.int64)
        late_fails = np.zeros(nreps, dtype=np.int64)

        for now in range(slots):
            # 1. New initiations by free nodes.
            irep, inode, islot = initiate(engaged)
            if irep.size:
                active[irep, inode] = True
                engaged[irep, inode] = True
                start[irep, inode] = now
                recv[irep, inode] = nbr[inode, islot]
                recv_slot[irep, inode] = islot
                rts_ok[irep, inode] = True
                cts_ok[irep, inode] = True
                data_ok[irep, inode] = True
                ack_ok[irep, inode] = True
                responded[irep, inode] = False
                proceeded[irep, inode] = False
                initiations += np.bincount(irep, minlength=nreps)

            # 2. Frames on the air this slot (offset = now - start;
            # `active` masks the stale starts of finished handshakes).
            off = now - start
            in_rts = active & (off < self.rts_end)
            in_cts = (
                active
                & responded
                & (off >= self.cts_start)
                & (off < self.cts_end)
            )
            in_data = (
                active
                & proceeded
                & (off >= self.data_start)
                & (off < self.data_end)
            )
            # The receiver only radiates an ACK for a DATA it decoded.
            in_ack = (
                active
                & proceeded
                & data_ok
                & (off >= self.ack_start)
                & (off < self.ack_end)
            )

            r1, s1 = np.nonzero(in_rts)
            r2, s2 = np.nonzero(in_cts)
            r3, s3 = np.nonzero(in_data)
            r4, s4 = np.nonzero(in_ack)
            if r1.size or r2.size or r3.size or r4.size:
                t2 = recv[r2, s2]
                t4 = recv[r4, s4]
                transmitting = np.zeros((nreps, count), dtype=bool)
                transmitting[r1, s1] = True
                transmitting[r3, s3] = True
                transmitting[r2, t2] = True
                transmitting[r4, t4] = True

                # 3. Interference.  Every frame's beam always covers
                # its own aim target (zero angular offset, in range)
                # and never the transmitter itself, so a listener's
                # reception is clean exactly when it is not itself
                # transmitting and precisely one beam — its peer's —
                # covers it.
                f_rep = np.concatenate((r1, r2, r3, r4))
                f_tx = np.concatenate((s1, t2, s3, t4))
                f_aim = np.concatenate(
                    (
                        recv_slot[r1, s1],
                        rev[s2, recv_slot[r2, s2]],
                        recv_slot[r3, s3],
                        rev[s4, recv_slot[r4, s4]],
                    )
                )
                f_dir = np.concatenate(
                    (
                        np.full(r1.size, dirs[FrameType.RTS]),
                        np.full(r2.size, dirs[FrameType.CTS]),
                        np.full(r3.size, dirs[FrameType.DATA]),
                        np.full(r4.size, dirs[FrameType.ACK]),
                    )
                )
                covered = np.where(
                    f_dir[:, None], cov[f_tx, f_aim], valid[f_tx]
                )
                listeners = nbr[f_tx]
                flat = f_rep[:, None] * count + listeners
                beams = np.bincount(
                    flat[covered], minlength=nreps * count
                ).reshape(nreps, count)
                dirty = transmitting | (beams != 1)

                l1 = recv[r1, s1]
                bad = dirty[r1, l1]
                rts_ok[r1[bad], s1[bad]] = False
                bad = dirty[r2, s2]
                cts_ok[r2[bad], s2[bad]] = False
                l3 = recv[r3, s3]
                bad = dirty[r3, l3]
                data_ok[r3[bad], s3[bad]] = False
                bad = dirty[r4, s4]
                ack_ok[r4[bad], s4[bad]] = False

            # 4. Checkpoint decisions and completions.
            crep, csend = np.nonzero(active & (off == self.rts_end - 1))
            if crep.size:
                # End of the RTS: the receiver replies iff it heard
                # the RTS cleanly and is free.  Same-slot contenders
                # for one receiver resolve first-wins by sender id —
                # np.nonzero is row-major, so within a replicate the
                # candidate order matches the scalar engine's
                # insertion order, and np.unique keeps the first.
                ok = rts_ok[crep, csend] & ~engaged[crep, recv[crep, csend]]
                crep, csend = crep[ok], csend[ok]
                if crep.size:
                    key = crep.astype(np.int64) * count + recv[crep, csend]
                    _, first = np.unique(key, return_index=True)
                    wrep, wsend = crep[first], csend[first]
                    responded[wrep, wsend] = True
                    engaged[wrep, recv[wrep, wsend]] = True

            gate = active & (off == self.cts_end - 1)
            proceeded[gate] = responded[gate] & cts_ok[gate]

            early = active & (off == self.t_fail_early - 1) & ~proceeded
            late = active & (off == self.t_succeed - 1)
            drep, dsend = np.nonzero(early | late)
            if drep.size:
                won = (
                    late[drep, dsend]
                    & proceeded[drep, dsend]
                    & data_ok[drep, dsend]
                    & ack_ok[drep, dsend]
                )
                was_early = early[drep, dsend]
                successes += np.bincount(drep[won], minlength=nreps)
                early_fails += np.bincount(drep[was_early], minlength=nreps)
                late_fails += np.bincount(
                    drep[~won & ~was_early], minlength=nreps
                )
                engaged[drep, dsend] = False
                had_cts = responded[drep, dsend]
                engaged[
                    drep[had_cts], recv[drep[had_cts], dsend[had_cts]]
                ] = False
                active[drep, dsend] = False

        results = [
            self._replicate_results(
                slots,
                int(initiations[i]),
                int(successes[i]),
                int(early_fails[i]),
                int(late_fails[i]),
            )
            for i in range(nreps)
        ]
        if self._metrics is not None:
            self._harvest(results)
        return results

    # ------------------------------------------------------------------

    def _replicate_results(
        self,
        slots: int,
        initiations: int,
        successes: int,
        early_fails: int,
        late_fails: int,
    ) -> SlotModelResults:
        fail_durations: Counter = Counter()
        if early_fails:
            fail_durations[self.t_fail_early] = early_fails
        if late_fails:
            fail_durations[self.t_succeed] = late_fails
        return SlotModelResults(
            slots=slots,
            node_count=self.geometry.count,
            mean_degree=self.geometry.mean_degree(),
            initiations=initiations,
            successes=successes,
            failures=early_fails + late_fails,
            payload_slots=successes * self._l[FrameType.DATA],
            fail_durations=fail_durations,
        )

    def _harvest(self, results: list[SlotModelResults]) -> None:
        """Push the batch's outcome counts into the attached registry,
        under the same instrument names as the scalar engine."""
        metrics = self._metrics
        assert metrics is not None
        metrics.counter("slotsim.slots").inc(sum(r.slots for r in results))
        metrics.counter("slotsim.initiations").inc(
            sum(r.initiations for r in results)
        )
        metrics.counter("slotsim.successes").inc(
            sum(r.successes for r in results)
        )
        metrics.counter("slotsim.failures").inc(
            sum(r.failures for r in results)
        )
        metrics.counter("slotsim.payload_slots").inc(
            sum(r.payload_slots for r in results)
        )
        histogram = metrics.histogram(
            "slotsim.fail_duration_slots", (self.t_fail_early, self.t_succeed)
        )
        totals: Counter = Counter()
        for r in results:
            totals.update(r.fail_durations)
        for duration, count in sorted(totals.items()):
            histogram.observe(duration, count)
