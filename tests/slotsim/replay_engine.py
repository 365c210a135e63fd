"""The batch engine replaying the scalar oracle's random stream.

:class:`ReplayEngine` is :class:`repro.slotsim.BatchSlotModelEngine`
with one override, the per-run initiation step: instead of the numpy
streams it consumes one :class:`random.Random` in the scalar engine's
exact draw order (placement first, then per slot one uniform per free
node that has neighbors and one ``choice`` per initiation).  So every
:class:`~repro.slotsim.SlotModelResults` field, the integer
failure-duration ledger included, equals a scalar run's, which
``tests/slotsim/test_batch.py::TestOracleBitIdentity`` checks with ``==``.
"""

import random

import numpy as np

from repro.slotsim import BatchSlotModelEngine, SlotModelConfig

from .torus import TorusGeometry, batch_geometry


class ReplayEngine(BatchSlotModelEngine):
    """One replicate of the batch engine on the scalar engine's stream.

    Args:
        config: the slot-model configuration; ``config.seed`` seeds the
            replayed stream, as it does the scalar engine's.
        geometry: a shared scalar geometry, or ``None`` to place the
            nodes from the replayed stream first.
        metrics: optional registry, as for the batch engine.
    """

    def __init__(
        self,
        config: SlotModelConfig,
        *,
        geometry: TorusGeometry | None = None,
        metrics=None,
    ) -> None:
        rng = random.Random(config.seed)
        if geometry is None:
            geometry = TorusGeometry(config, rng)
        super().__init__(
            config,
            geometry=batch_geometry(geometry, config.params.beamwidth),
            metrics=metrics,
        )
        self._rng = rng
        # run() rewinds to here, mirroring the scalar engine's
        # post-construction snapshot.
        self._rng_state = rng.getstate()
        self._neighbors = geometry.neighbors
        # Receiver id -> slot in the node's neighbor row, for
        # translating rng.choice results into table coordinates.
        self._slot_of = [
            {node: slot for slot, node in enumerate(row)}
            for row in self._neighbors
        ]

    def _initiator(self):
        rng = self._rng
        rng.setstate(self._rng_state)
        neighbors, slot_of = self._neighbors, self._slot_of
        p = self.config.p

        def initiate(engaged):
            engaged_row = engaged[0]
            nodes: list[int] = []
            slots: list[int] = []
            for node, row in enumerate(neighbors):
                if engaged_row[node] or not row:
                    continue
                if rng.random() >= p:
                    continue
                receiver = rng.choice(row)
                nodes.append(node)
                slots.append(slot_of[node][receiver])
            inode = np.array(nodes, dtype=np.int64)
            return (
                np.zeros(inode.size, dtype=np.int64),
                inode,
                np.array(slots, dtype=np.int32),
            )

        return initiate
